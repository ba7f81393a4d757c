"""Network parsing, validation, classification, and order enumeration."""

from __future__ import annotations

import pytest

from fusetree import (
    classify_indices,
    format_network,
    network_to_json,
    parse_network,
    topological_orders,
)
from fusetree.errors import (
    DuplicateIndexError,
    ExtentMismatchError,
    InvalidContractionError,
    NotATreeError,
    ParseError,
    TooLargeError,
    UnknownTensorError,
)
from conftest import CHAIN_NETWORK, MATMUL_NETWORK, chain_network

import json


class TestParse:
    def test_running_example_chain(self, running_tree):
        assert running_tree.m == 3
        assert running_tree.intermediate_names == ("X", "Y")
        assert running_tree.root.result.tensor == "R"
        assert running_tree.input_names == ("A", "B", "C", "D")
        assert [str(c) for c in running_tree.contractions] == [
            "X[i,j,q,r] = A[i,p,q] * B[j,p,r]",
            "Y[i,j,k,r] = X[i,j,q,r] * C[k,q,r]",
            "R[i,j,k] = Y[i,j,k,r] * D[j,k,r]",
        ]

    def test_consumer_first_listing(self):
        tree = parse_network(
            "R[i] = W1[i] * W2[i]\nW2[i] = C[i,l] * D[l,i]\nW1[i] = A[i,j] * B[j,i]\n"
        )
        assert tree.root.cid == 0
        assert tree.root.result.tensor == "R"
        assert tree.input_names == ("C", "D", "A", "B")
        assert tree.intermediate_names == ("W2", "W1")
        assert [tree.children_of(cid) for cid in range(3)] == [(2, 1), (), ()]
        assert [(e.tensor, e.producer, e.consumer) for e in tree.edges] == [("W1", 2, 0), ("W2", 1, 0)]
        assert list(topological_orders(tree)) == [(1, 2, 0), (2, 1, 0)]

    def test_single_contraction(self, matmul_tree):
        assert matmul_tree.m == 1
        ext, con = classify_indices(matmul_tree.contractions[0])
        assert con == {"k"}

    def test_extent_mismatch(self):
        with pytest.raises(ExtentMismatchError):
            parse_network("extent k 4\nextent k 5\nR[i,j] = T[i,k] * S[k,j]\n")

    def test_comments_and_blanks(self):
        tree = parse_network("# header\n\nextent i 2\nextent k 2\nextent j 2\nR[i,j] = T[i,k] * S[k,j]  # trailing\n")
        assert tree.m == 1

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_network("R[i,j] == T[i,k] * S[k,j]\n")

    def test_duplicate_index_in_ref(self):
        with pytest.raises(DuplicateIndexError):
            parse_network("R[i,j] = T[i,i] * S[i,j]\n")

    def test_free_result_index(self):
        with pytest.raises(InvalidContractionError):
            parse_network("R[i,z] = T[i,k] * S[k,i]\n")

    def test_produced_twice(self):
        with pytest.raises(NotATreeError):
            parse_network("X[i] = A[i,j] * B[j,i]\nX[i] = C[i,j] * D[j,i]\n")

    def test_consumed_twice(self):
        text = "X[i] = A[i,j] * B[j,i]\nR[i] = X[i] * X[i]\n"
        with pytest.raises(NotATreeError):
            parse_network(text)

    def test_two_roots(self):
        with pytest.raises(NotATreeError):
            parse_network("X[i] = A[i,j] * B[j,i]\nY[i] = C[i,j] * D[j,i]\n")

    def test_summed_index_escaping_subtree(self):
        # p is summed in the first contraction but reused by the root
        text = "X[i] = A[i,p] * B[p,i]\nR[i] = X[i] * C[i,p]\n"
        with pytest.raises(InvalidContractionError):
            parse_network(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "X[i] = A[i,p] * B[p,i]\nR[i] = X[i] * C[i,p]\n",
                "indices ['p'] are summed in X[i] = A[i,p] * B[p,i] but reused outside its subtree",
            ),
            # the first user outside the subtree, in listing order, names the leak
            (
                "R[i] = W1[i] * W2[i,q]\nW1[i] = A[i,p,q] * B[p,q,i]\nW2[i,q] = C[i,q] * D[i,p,q]\n",
                "indices ['q'] are summed in W1[i] = A[i,p,q] * B[p,q,i] but reused outside its subtree",
            ),
            (
                "R[i] = W1[i] * W2[i]\nW2[i] = C[i,q] * D[q,i]\nW1[i] = A[i,p,q] * B[p,q,i]\n",
                "indices ['q'] are summed in W2[i] = C[i,q] * D[q,i] but reused outside its subtree",
            ),
            (
                "R[i] = W1[i] * W2[i]\nW2[i] = C[i,p] * D[p,i]\nW1[i] = A[i,p,q] * B[p,q,i]\n",
                "indices ['p'] are summed in W2[i] = C[i,p] * D[p,i] but reused outside its subtree",
            ),
            (
                "R[i] = W1[i] * W2[i]\nW1[i] = A[i,p,q] * B[p,q,i]\nW2[i] = C[i,q] * D[q,p,i]\n",
                "indices ['p', 'q'] are summed in W1[i] = A[i,p,q] * B[p,q,i] but reused outside its subtree",
            ),
        ],
    )
    def test_escaping_index_message(self, text, message):
        with pytest.raises(InvalidContractionError) as info:
            parse_network(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("root_first", (False, True))
    def test_long_chains_parse(self, root_first):
        n = 1100 if root_first else 1000
        tree = parse_network(chain_network(n, root_first))
        assert tree.m == n
        assert tree.root.result.tensor == f"X{n}"
        assert len(tree.edges) == n - 1

    def test_layout_directives(self, running_tree):
        assert running_tree.layouts == {"R": ("j", "k", "i")}
        with pytest.raises(UnknownTensorError):
            parse_network(MATMUL_NETWORK + "layout Z i,j\n")
        with pytest.raises(InvalidContractionError):
            parse_network(MATMUL_NETWORK + "layout T k,j\n")  # not T's indices
        with pytest.raises(InvalidContractionError):
            parse_network(CHAIN_NETWORK + "layout X j,i\n")  # intermediate

    def test_mask_contraction_accepted(self):
        tree = parse_network(
            "extent i 2\nextent j 2\nextent k 2\n"
            "X[i,j,k] = A[i,j,k] * L[i,j]\nR[i] = X[i,j,k] * M[j,k]\n"
        )
        ext, con = classify_indices(tree.contractions[0])
        assert ext == {"i", "j", "k"} and con == frozenset()


class TestClassify:
    def test_matmul(self, matmul_tree):
        ext, con = classify_indices(matmul_tree.contractions[0])
        assert (ext, con) == ({"i", "j"}, {"k"})

    def test_first_running_contraction(self, running_tree):
        ext, con = classify_indices(running_tree.contractions[0])
        assert ext == {"i", "j", "q", "r"} and con == {"p"}

    def test_partition_property(self, running_tree, chain_tree):
        for tree in (running_tree, chain_tree):
            for c in tree.contractions:
                ext, con = classify_indices(c)
                assert ext | con == c.index_set
                assert ext & con == frozenset()


class TestRoundTrip:
    def test_text_round_trip(self, running_tree):
        again = parse_network(format_network(running_tree))
        assert again.contractions == running_tree.contractions
        assert dict(again.extents) == dict(running_tree.extents)
        assert dict(again.layouts) == dict(running_tree.layouts)

    def test_json_round_trip(self, running_tree):
        doc = network_to_json(running_tree)
        again = parse_network(json.dumps(doc))
        assert again.contractions == running_tree.contractions
        assert dict(again.layouts) == dict(running_tree.layouts)

    def test_parse_deterministic(self, running_tree):
        text = format_network(running_tree)
        assert parse_network(text) == parse_network(text)


class TestTopologicalOrders:
    def test_chain_single_order(self, running_tree):
        assert list(topological_orders(running_tree)) == [(0, 1, 2)]

    def test_two_children(self):
        text = (
            "W1[i] = A[i,j] * B[j,i]\nW2[i] = C[i,l] * D[l,i]\nR[i] = W1[i] * W2[i]\n"
        )
        tree = parse_network(text)
        assert list(topological_orders(tree)) == [(0, 1, 2), (1, 0, 2)]

    def test_orders_respect_edges(self, running_tree):
        for order in topological_orders(running_tree):
            pos = {cid: k for k, cid in enumerate(order)}
            for c in running_tree.contractions:
                for child in running_tree.children_of(c.cid):
                    assert pos[child] < pos[c.cid]

    def test_too_large(self):
        # chain of 9 contractions exceeds the enumeration guard
        text_lines = ["X0[a] = A[a,b] * B[b,a]"]
        for k in range(1, 9):
            text_lines.append(f"X{k}[a] = X{k-1}[a] * C{k}[a]")
        tree = parse_network("\n".join(text_lines) + "\n")
        with pytest.raises(TooLargeError):
            list(topological_orders(tree))
