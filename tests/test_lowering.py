"""Schedule pairs, IR generation with fused-index stripping, and printing."""

from __future__ import annotations

import json

import pytest

from fusetree import (
    Assign,
    Forall,
    SchedulePair,
    ScheduleSolution,
    TensorRef,
    Where,
    generate,
    ir_to_json,
    lower,
    parse_network,
    print_ir,
    schedule_from_solution,
    verify_solution,
)
from fusetree.errors import MalformedScheduleError
from conftest import GOLDEN_IR, chain_network, chain_solution, ir_text_equal, reference_witness


def _pair_strs(pairs):
    return [(str(p.result), str(p.lhs), str(p.rhs), list(p.loops)) for p in pairs]


class TestScheduleFromSolution:
    def test_reference_pair_sequence(self, running_tree):
        pairs = schedule_from_solution(running_tree, reference_witness())
        assert _pair_strs(pairs) == [
            ("X[r,j,q,i]", "A[p,q,i]", "B[r,j,p]", ["r", "j", "p", "q", "i"]),
            ("Y[r,j,k,i]", "X[r,j,q,i]", "C[r,q,k]", ["r", "j", "q", "k", "i"]),
            ("R[j,k,i]", "Y[r,j,k,i]", "D[r,j,k]", ["r", "j", "k", "i"]),
        ]

    def test_assignments_biject_contractions(self, running_tree):
        pairs = schedule_from_solution(running_tree, reference_witness())
        assert sorted(p.cid for p in pairs) == [0, 1, 2]

    def test_single_contraction_identity_layouts(self, matmul_tree):
        sol = ScheduleSolution(
            bound=1,
            ap={0: 0},
            lp={0: {"i": 0, "k": 1, "j": 2}},
            dp={"T": {0: 0, 1: 1}, "S": {0: 0, 1: 1}, "R": {0: 0, 1: 1}},
        )
        pairs = schedule_from_solution(matmul_tree, sol)
        assert _pair_strs(pairs) == [("R[i,j]", "T[i,k]", "S[k,j]", ["i", "k", "j"])]

    def test_reference_layout_consistent_with_loops(self, running_tree):
        pairs = schedule_from_solution(running_tree, reference_witness())
        for p in pairs:
            for ref in (p.result, p.lhs, p.rhs):
                positions = [p.loops.index(i) for i in ref.indices if i in p.loops]
                assert positions == sorted(positions)


def _assign(name="A0", loops=()):
    return SchedulePair(
        0 if name == "A0" else 1,
        TensorRef(name, ()),
        TensorRef("u", ()),
        TensorRef("v", ()),
        tuple(loops),
    )


class TestGenerate:
    def test_golden_ir(self, running_tree):
        ir = lower(running_tree, reference_witness())
        assert ir_text_equal(print_ir(ir), GOLDEN_IR)

    def test_trailing_bare_assignment_becomes_where(self):
        pairs = [_assign("A0", ("i",)), _assign("A1", ())]
        ir = generate(pairs)
        assert isinstance(ir, Where)
        assert isinstance(ir.consumer, Assign) and ir.consumer.result.tensor == "A1"
        assert isinstance(ir.producer, Forall) and ir.producer.index == "i"

    def test_single_bare_assignment(self):
        ir = generate([_assign("A0", ())])
        assert isinstance(ir, Assign)

    def test_empty_schedule(self):
        with pytest.raises(MalformedScheduleError):
            generate([])

    def test_long_chain_lowers_without_recursing_per_contraction(self):
        # every link shares loop a, so 1,100 assignments fold into one where chain
        n = 1100
        tree = parse_network(chain_network(n))
        sol = chain_solution(tree)
        assert verify_solution(tree, 1, sol) == []
        ir = lower(tree, sol)
        assert isinstance(ir, Forall) and ir.index == "a"
        consumers, node = [], ir.body
        while isinstance(node, Where):
            consumers.append(node.consumer)
            node = node.producer
        consumers.append(node)
        assigns = consumers[::-1]
        assert [a.cid for a in assigns] == [c.cid for c in tree.contractions]
        texts = [print_ir(a) for a in assigns]
        assert texts[0] == "X1() = X0(a) * B1(a)"
        assert texts[1] == "X2() = X1() * B2(a)"
        assert texts[-1] == f"X{n}(a) = X{n - 1}() * B{n}(a)"

    def test_assign_count_and_execution_order(self, running_tree):
        ir = lower(running_tree, reference_witness())

        def execution_order(node):
            if isinstance(node, Assign):
                return [node.cid]
            if isinstance(node, Forall):
                return execution_order(node.body)
            return execution_order(node.producer) + execution_order(node.consumer)

        assert execution_order(ir) == [0, 1, 2]  # producers run before consumers

    def test_fused_prefix_depth(self, running_tree):
        ir = lower(running_tree, reference_witness())

        def paths(node, prefix):
            if isinstance(node, Assign):
                yield node.cid, prefix
            elif isinstance(node, Forall):
                yield from paths(node.body, prefix + [node.index])
            else:
                yield from paths(node.producer, prefix)
                yield from paths(node.consumer, prefix)

        chains = dict(paths(ir, []))
        for producer, consumer, order in ((0, 1, 4), (1, 2, 4)):
            shared = 0
            for a, b in zip(chains[producer], chains[consumer]):
                if a != b:
                    break
                shared += 1
            assert shared >= order - 2  # at least n - l common outer loops

    def test_index_binding_closure(self, running_tree):
        ir = lower(running_tree, reference_witness())

        def check(node, bound):
            if isinstance(node, Assign):
                for ref in (node.result, node.lhs, node.rhs):
                    assert set(ref.indices) <= bound
            elif isinstance(node, Forall):
                check(node.body, bound | {node.index})
            else:
                check(node.producer, bound)
                check(node.consumer, bound)

        check(ir, set())


class TestLoweringProperties:
    """Bound guarantees over random solver outputs."""

    def _ir_paths(self, node, prefix=()):
        if isinstance(node, Assign):
            yield node, prefix
        elif isinstance(node, Forall):
            yield from self._ir_paths(node.body, prefix + (node.index,))
        else:
            yield from self._ir_paths(node.producer, prefix)
            yield from self._ir_paths(node.consumer, prefix)

    def test_workspace_order_bounded_and_prefix_shared(self):
        import random
        from conftest import random_tree
        from fusetree import solve

        rng = random.Random(31)
        checked_edges = 0
        for _ in range(60):
            tree = random_tree(rng)
            for bound in (1, 2, 3):
                sol = solve(tree, bound)
                if sol is None:
                    continue
                ir = generate(schedule_from_solution(tree, sol))
                located = {a.cid: (a, path) for a, path in self._ir_paths(ir)}
                produced = {c.result.tensor: c.cid for c in tree.contractions}
                for c in tree.contractions:
                    for ref in (c.lhs, c.rhs):
                        if ref.tensor not in produced:
                            continue
                        checked_edges += 1
                        n = len(ref.indices)
                        producer_assign, ppath = located[produced[ref.tensor]]
                        consumer_assign, cpath = located[c.cid]
                        # the surviving workspace order respects the bound
                        assert len(producer_assign.result.indices) <= max(bound, n)
                        if n > bound:
                            assert len(producer_assign.result.indices) <= bound
                            shared = 0
                            for a, b in zip(ppath, cpath):
                                if a != b:
                                    break
                                shared += 1
                            assert shared >= n - bound
        assert checked_edges > 0


class TestPrint:
    def test_assignment_body(self, running_tree):
        ir = lower(running_tree, reference_witness())
        text = print_ir(ir)
        assert "R(j,k,i) = Y(k,i) * D(r,j,k)" in text
        assert "Y(k,i) = X(q,i) * C(r,q,k)" in text
        assert "X(q,i) = A(p,q,i) * B(r,j,p)" in text

    def test_forall_shape(self):
        ir = Forall("i", generate([_assign("A0", ())]))
        assert print_ir(ir) == "forall(i, A0() = u() * v())"

    def test_deterministic_and_pretty_equivalent(self, running_tree):
        ir = lower(running_tree, reference_witness())
        assert print_ir(ir) == print_ir(ir)
        assert ir_text_equal(print_ir(ir), print_ir(ir, pretty=True))

    def test_json_rendering_stable(self, running_tree):
        ir = lower(running_tree, reference_witness())
        doc = ir_to_json(ir)
        assert json.dumps(doc, sort_keys=True) == json.dumps(ir_to_json(ir), sort_keys=True)
        assert "where" in doc["forall"]["body"]["forall"]["body"]


def test_ir_equality_and_hash_follow_the_tree(running_tree):
    ir, again = lower(running_tree, reference_witness()), lower(running_tree, reference_witness())
    assert ir is not again and ir == again and hash(ir) == hash(again)
    a, b = generate([_assign("A0", ())]), generate([_assign("B0", ())])
    shapes = [
        Forall("i", a), Forall("j", a), Forall("i", b), Where(a, b), Where(b, a),
        Forall("i", Where(a, b)), Where(Forall("i", a), b), Where(a, Forall("i", b)),
    ]
    for k, x in enumerate(shapes):
        assert [x == y for y in shapes] == [k == j for j in range(len(shapes))]
