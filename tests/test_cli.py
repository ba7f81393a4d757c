"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from fusetree import check, read_tns
from fusetree.bench import running_example_network
from fusetree.cli import main
from fusetree.errors import SolveTimeout
from conftest import GOLDEN_IR, MATMUL_NETWORK, chain_network, ir_text_equal


@pytest.fixture
def running_net(tmp_path):
    path = tmp_path / "running.net"
    path.write_text(running_example_network(6))
    return path


class TestPlan:
    def test_reference_plan(self, running_net, tmp_path, capsys):
        ir_path = tmp_path / "plan.ir"
        sol_path = tmp_path / "plan.json"
        code = main(
            ["plan", "--network", str(running_net), "--emit-ir", str(ir_path),
             "--solution", str(sol_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "minimal workspace order: 2" in out
        assert ir_text_equal(ir_path.read_text(), GOLDEN_IR)
        doc = json.loads(sol_path.read_text())
        assert doc["bound"] == 2
        assert doc["loop_orders"]["0"] == ["r", "j", "p", "q", "i"]
        assert doc["mode_orders"]["A"]["indices"] == ["p", "q", "i"]

    def test_unsat_exit_code(self, running_net):
        assert main(["plan", "--network", str(running_net), "--max-order", "1"]) == 2

    @pytest.mark.parametrize("command", (["plan"], ["run"], ["bench", "--kind", "ttmc1", "--seed", "1"]))
    def test_solver_timeout_exit_code(self, command, running_net, monkeypatch, capsys):
        import fusetree.cli as cli

        def timed_out(tree, l_max=None, time_budget=10.0):
            raise SolveTimeout(time_budget, tree, 3)

        monkeypatch.setattr(cli, "search_min_order", timed_out)
        argv = command if command[0] == "bench" else command + ["--network", str(running_net)]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "timeout: solve exceeded time budget of 10.000s at workspace order bound 3\n"

    def test_solver_timeout_line_counts_the_nodes_searched(self, running_net, monkeypatch, capsys):
        import fusetree.cli as cli
        from fusetree import search_min_order

        # a spent budget stops the real search on its first node
        monkeypatch.setattr(cli, "search_min_order", lambda tree, l_max=None: search_min_order(tree, l_max, -1.0))
        assert main(["plan", "--network", str(running_net)]) == 4
        assert capsys.readouterr().err == (
            "timeout: solve exceeded time budget of -1.000s at workspace order bound 1 (search nodes: 1)\n"
        )

    @pytest.mark.parametrize("n, root_first", [(400, False), (1100, True)])
    def test_deep_chain_exits_with_an_error_line(self, n, root_first, tmp_path, capsys):
        net = tmp_path / "chain.net"
        net.write_text(chain_network(n, root_first))
        assert main(["plan", "--network", str(net)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: a tree of {n} contractions is too deep for the search at bound 1\n"

    def test_bench_unsat_exit_code(self, capsys):
        argv = ["bench", "--kind", "running_example", "--extents", "4", "--seed", "1", "--max-order", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "unsat: no schedule with workspace order <= 1\n"

    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_bound_below_one_exits_with_an_error_line(self, bound, running_net, capsys):
        assert main(["plan", "--network", str(running_net), "--max-order", bound]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bound must be >= 1, got {bound}\n"

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("R[i,j] == T[i,k] * S[k,j]\n")
        assert main(["plan", "--network", str(bad)]) == 1

    def test_extent_mismatch_diagnostic_names_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("extent k 4\nextent k 5\nR[i,j] = T[i,k] * S[k,j]\n")
        assert main(["plan", "--network", str(bad)]) == 1
        assert "'k'" in capsys.readouterr().err

    def test_input_read_with_other_extents_exits_with_an_error_line(self, tmp_path, capsys):
        # A is 3x4 as A[i,j] but 4x3 as A[k,l]; the kernel used to index past A
        bad = tmp_path / "twice.net"
        bad.write_text(
            "extent i 3\nextent j 4\nextent k 4\nextent l 3\n"
            "X[i,k] = A[i,j] * B[j,k]\nR[i,l] = X[i,k] * A[k,l]\n"
        )
        argv = ["run", "--network", str(bad), "--synthetic", "A=3x4:0.9:1", "--synthetic", "B=4x4:0.9:2", "--check"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input 'A' has extents (3, 4) in A[i,j] but (4, 3) in A[k,l]\n"

    def test_input_read_with_another_number_of_indices_exits_with_an_error_line(self, tmp_path, capsys):
        bad = tmp_path / "arity.net"
        bad.write_text("extent i 3\nextent j 4\nX[i] = A[i,j] * B[j]\nR[i] = X[i] * A[i]\n")
        assert main(["plan", "--network", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input 'A' has 2 indices in A[i,j] but 1 in A[i]\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"extents": {"i": 2}, "contractions": [{"out": "R[i]", "lhs": "A[i]"}]},
                "a contraction of the JSON network spec has no key 'rhs'",
            ),
            (
                {"extents": {"i": "x"}, "contractions": [{"out": "R[i]", "lhs": "A[i]", "rhs": "B[i]"}]},
                """extent "x" of index 'i' is not an integer""",
            ),
            *(
                (
                    {"extents": {"i": extent}, "contractions": [{"out": "R[i]", "lhs": "A[i]", "rhs": "B[i]"}]},
                    f"extent {text} of index 'i' is not an integer",
                )
                for extent, text in ((2.7, "2.7"), (3.0, "3.0"), (True, "true"), ("3", '"3"'))
            ),
            (
                {"extents": {"i": 2}, "contractions": [{"out": "R[i]", "lhs": "A[i]", "rhs": 5}]},
                "malformed JSON network spec: 'int' object has no attribute 'strip'",
            ),
            *(
                (
                    {
                        "extents": {"i": 2, "j": 3},
                        "layouts": {"A": layout},
                        "contractions": [{"out": "R[i]", "lhs": "A[i,j]", "rhs": "B[j]"}],
                    },
                    f"layout {text} of tensor 'A' is not a list of index names",
                )
                for layout, text in (("ji", '"ji"'), ("j,i", '"j,i"'), ([1, 2], "[1, 2]"), ({"i": 0}, '{"i": 0}'))
            ),
        ],
        ids=[
            "missing-key",
            "extent-not-an-integer",
            "extent-a-fraction",
            "extent-a-float",
            "extent-a-boolean",
            "extent-a-string-of-digits",
            "reference-not-a-string",
            "layout-a-string",
            "layout-a-string-with-a-comma",
            "layout-of-integers",
            "layout-an-object",
        ],
    )
    def test_malformed_json_network_exits_with_an_error_line(self, spec, message, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        assert main(["plan", "--network", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_byte_identical_reports(self, running_net, capsys):
        main(["plan", "--network", str(running_net)])
        first = capsys.readouterr().out
        main(["plan", "--network", str(running_net)])
        second = capsys.readouterr().out
        assert first == second

    def test_single_contraction_pure_forall_nest(self, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        assert main(["plan", "--network", str(net)]) == 0
        out = capsys.readouterr().out
        assert "minimal workspace order: 1" in out
        assert "forall(" in out and "where(" not in out

    def test_root_layout_override_relaxed(self, tmp_path, capsys):
        free = tmp_path / "free.net"
        free.write_text(running_example_network(6).replace("layout R j,k,i\n", ""))
        assert main(["plan", "--network", str(free)]) == 0
        assert "minimal workspace order: 1" in capsys.readouterr().out
        assert main(["plan", "--network", str(free), "--root-layout", "j,k,i"]) == 0
        assert "minimal workspace order: 2" in capsys.readouterr().out

    def test_ir_json_emission(self, running_net, tmp_path):
        ir_path = tmp_path / "plan.ir.json"
        assert main(["plan", "--network", str(running_net), "--emit-ir", str(ir_path)]) == 0
        doc = json.loads(ir_path.read_text())
        assert doc["forall"]["index"] == "r"


class TestRun:
    def test_synthetic_run_with_check(self, running_net, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        out_path = tmp_path / "result.tns"
        argv = ["run", "--network", str(running_net), "--check",
                "--stats", str(stats_path), "--out", str(out_path)]
        for name in ("A", "B", "C", "D"):
            argv += ["--synthetic", f"{name}=6x6x6:0.2:{ord(name)}"]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert "check against n-ary oracle: pass" in out
        stats = json.loads(stats_path.read_text())
        assert stats["max_workspace_cells"] == 36
        result = read_tns(out_path.open())
        assert result.nnz > 0

    def test_tensor_files(self, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        t = tmp_path / "T.tns"
        s = tmp_path / "S.tns"
        t.write_text("1 1 2.0\n2 2 3.0\n")
        s.write_text("1 2 5.0\n2 1 7.0\n")
        out = tmp_path / "r.tns"
        code = main(["run", "--network", str(net), "--tensor", f"T={t}",
                     "--tensor", f"S={s}", "--check", "--out", str(out)])
        assert code == 0
        result = read_tns(out.open())
        assert result.entries == (((0, 1), 10.0), ((1, 0), 21.0))

    @pytest.mark.parametrize("dense", (False, True))
    @pytest.mark.parametrize("n", (20, 21))
    def test_kernel_nesting_limit(self, n, dense, tmp_path, capsys):
        # one loop per index: Python compiles at most 20 nested for loops
        indices = [f"a{k}" for k in range(n)]
        net = tmp_path / "deep.net"
        net.write_text("".join(f"extent {i} 1\n" for i in indices)
                       + f"R[a0] = A[{','.join(indices)}] * B[a{n - 1}]\n")
        argv = ["run", "--network", str(net), "--check",
                "--synthetic", f"A={'x'.join(['1'] * n)}:1:1", "--synthetic", "B=1:1:2"]
        code = main(argv + (["--dense", "A"] if dense else []))
        captured = capsys.readouterr()
        if n == 20:
            assert code == 0
            assert "check against n-ary oracle: pass: 1 coordinates" in captured.out
        else:
            assert code == 1
            assert captured.err == "error: a kernel nests more than 20 loops, which Python cannot compile\n"

    def test_missing_tensor(self, tmp_path):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        assert main(["run", "--network", str(net)]) == 1

    def test_missing_tensor_file(self, tmp_path):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        argv = ["run", "--network", str(net), "--tensor", f"T={tmp_path}/nope.tns",
                "--tensor", f"S={tmp_path}/nope.tns"]
        assert main(argv) == 1

    def test_non_finite_tensor_file(self, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        t = tmp_path / "T.tns"
        s = tmp_path / "S.tns"
        t.write_text("1 1 2.0\n2 2 inf\n")
        s.write_text("1 2 5.0\n")
        code = main(["run", "--network", str(net), "--tensor", f"T={t}", "--tensor", f"S={s}"])
        assert code == 1
        assert "not finite" in capsys.readouterr().err

    def test_missing_network_file(self, tmp_path):
        assert main(["plan", "--network", str(tmp_path / "absent.net")]) == 1

    def test_check_failure_exit_code(self, running_net, monkeypatch):
        from fusetree import coo_from_entries
        import fusetree.cli as cli

        def wrong_oracle(tree, tensors):
            shape = tree.ref_shape(tree.root.result)
            return coo_from_entries([((0,) * len(shape), 123.0)], shape)

        monkeypatch.setattr(cli, "oracle_nary", wrong_oracle)
        argv = ["run", "--network", str(running_net), "--check"]
        for name in ("A", "B", "C", "D"):
            argv += ["--synthetic", f"{name}=6x6x6:0.2:{ord(name)}"]
        assert main(argv) == 3

    def test_synthetic_shape_for_an_order_0_input(self, tmp_path, capsys):
        net = tmp_path / "scalar.net"
        net.write_text("extent i 3\nR[i] = A[i] * S[]\n")
        argv = ["run", "--network", str(net), "--synthetic", "A=3:0.9:1", "--synthetic", "S=3:0.9:2"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "minimal workspace order: 1\n"  # tensors are read after planning
        assert captured.err == "error: synthetic shape (3,) for 'S' differs from declared ()\n"

    @pytest.mark.parametrize("spec, message", [
        ("A=99999999999999999999x4:0:1", "synthetic shape (99999999999999999999, 4) has 399999999999999999996 cells, "
         "more than numpy can draw from"),
        ("A=3x4:0.5:-1", "seed must be a non-negative integer, got -1"),
    ])
    def test_synthetic_input_off_the_happy_path_exits_with_an_error_line(self, spec, message, tmp_path, capsys):
        net = tmp_path / "mm.net"
        extent = spec.split("=")[1].split("x")[0]
        net.write_text(f"extent i {extent}\nextent j 4\nextent k 3\nR[i,k] = A[i,j] * B[j,k]\n")
        argv = ["run", "--network", str(net), "--synthetic", spec, "--synthetic", "B=4x3:0.5:1"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "minimal workspace order: 1\n"
        assert captured.err == f"error: {message}\n"

    def test_bad_synthetic_spec(self, running_net):
        assert main(["run", "--network", str(running_net), "--synthetic", "A=oops"]) == 1

    @pytest.mark.parametrize("density", ("-0.5", "nan"))
    def test_bad_synthetic_density(self, density, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        argv = ["run", "--network", str(net), "--synthetic", f"T=2x2:{density}:1", "--synthetic", "S=2x2:1:2"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: density must be a number in [0, 1], got {density}\n"

    @pytest.mark.parametrize("tol", (["--rel-tol", "nan"], ["--abs-tol", "nan"], ["--rel-tol", "-1"]))
    def test_invalid_tolerance(self, tol, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        argv = ["run", "--network", str(net), "--synthetic", "T=2x2:1:1", "--synthetic", "S=2x2:1:2", "--check"]
        assert main(argv + tol) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tolerances must be finite and >= 0") and err.count("\n") == 1

    def test_bad_tolerance_plans_and_writes_nothing(self, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        out, stats = tmp_path / "r.tns", tmp_path / "s.json"
        argv = ["run", "--network", str(net), "--synthetic", "T=2x2:1:1", "--synthetic", "S=2x2:1:2",
                "--check", "--rel-tol", "nan", "--out", str(out), "--stats", str(stats)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tolerances must be finite and >= 0")
        assert not out.exists() and not stats.exists()

    @pytest.mark.parametrize("leaves, route", [(63, "n-ary"), (64, "unfused")])
    def test_oracle_falls_back_past_the_einsum_operand_limit(self, leaves, route, tmp_path, capsys):
        # numpy 2 takes at most 63 operands in one einsum call
        net = tmp_path / "chain.net"
        net.write_text(chain_network(leaves - 1).replace("extent a 3", "extent a 2"))
        argv = ["run", "--network", str(net), "--check", "--synthetic", "X0=2:1:0"]
        for k in range(1, leaves):
            argv += ["--synthetic", f"B{k}=2:1:{k}"]
        assert main(argv) == 0
        assert f"check against {route} oracle: pass: 2 coordinates" in capsys.readouterr().out

    def test_misspelled_dense_name(self, tmp_path, capsys):
        net = tmp_path / "mm.net"
        net.write_text(MATMUL_NETWORK)
        argv = ["run", "--network", str(net), "--synthetic", "T=2x2:1:1", "--synthetic", "S=2x2:1:2", "--dense", "s"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: no input 's' to bind dense\n"

    def test_dense_input_beyond_the_budget_exits_with_an_error_line(self, tmp_path, monkeypatch, capsys):
        import fusetree.executor as executor

        net = tmp_path / "row.net"
        net.write_text("extent i 64\nextent j 64\nR[i] = A[i,j] * B[j]\n")
        monkeypatch.setattr(executor, "DENSE_SPACE_BUDGET", 4095)
        code = main(["run", "--network", str(net), "--synthetic", "A=64x64:0.01:1",
                     "--synthetic", "B=64:0.5:2", "--dense", "A"])
        captured = capsys.readouterr()
        assert code == 1
        assert "result:" not in captured.out
        assert captured.err == "error: dense input 'A' needs 4096 cells\n"


class TestVerifyCmd:
    def test_round_trip_pass_and_tampered_fail(self, running_net, tmp_path):
        sol_path = tmp_path / "sol.json"
        assert main(["plan", "--network", str(running_net), "--solution", str(sol_path)]) == 0
        assert main(["verify", "--network", str(running_net), "--solution", str(sol_path)]) == 0
        doc = json.loads(sol_path.read_text())
        order = doc["loop_orders"]["0"]
        order[0], order[1] = order[1], order[0]
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        assert main(["verify", "--network", str(running_net), "--solution", str(tampered)]) == 3

    @pytest.mark.parametrize(
        "extra", [["lp_0_zz"], ["dp_A_7"], ["lp_0_zz", "dp_A_7"]], ids=["loop", "mode", "both"]
    )
    def test_extra_entries_are_violations(self, extra, running_net, tmp_path, capsys):
        # a loop the contraction lacks, or a mode the tensor lacks, appended
        # to an order that the solver wrote
        sol_path = tmp_path / "sol.json"
        assert main(["plan", "--network", str(running_net), "--solution", str(sol_path)]) == 0
        doc = json.loads(sol_path.read_text())
        if "lp_0_zz" in extra:
            doc["loop_orders"]["0"].append("zz")
        if "dp_A_7" in extra:
            doc["mode_orders"]["A"]["perm"].append(7)
        sol_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--network", str(running_net), "--solution", str(sol_path)]) == 3
        assert capsys.readouterr().out == "".join(
            [f"{len(extra)} violated constraints:\n"]
            + [f"  extra: {name} is not a variable of the model\n" for name in extra]
        )

    def test_key_written_twice_exits_with_an_error_line(self, running_net, tmp_path, capsys):
        # the file names contraction 0 twice; json.loads alone would keep the last
        sol_path = tmp_path / "sol.json"
        assert main(["plan", "--network", str(running_net), "--solution", str(sol_path)]) == 0
        text = json.dumps(json.loads(sol_path.read_text()))
        key = '"assignment_positions": {'
        sol_path.write_text(text.replace(key, key + '"0": 5, ', 1))
        capsys.readouterr()
        assert main(["verify", "--network", str(running_net), "--solution", str(sol_path)]) == 1
        assert capsys.readouterr().err == 'error: key "0" appears twice in one object\n'

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda doc: {"bound": 1}, "solution has no key 'assignment_positions'"),
            (lambda doc: [doc], "a solution must be a JSON object"),
            (
                lambda doc: {**doc, "assignment_positions": {"x": 0}},
                "malformed solution: invalid literal for int() with base 10: 'x'",
            ),
            (lambda doc: {**doc, "bound": 0}, "bound must be >= 1, got 0"),
            (lambda doc: {**doc, "bound": 2.9}, "bound must be an integer, got 2.9"),
            (
                lambda doc: {**doc, "assignment_positions": {"0": 0.7, "1": 1.7, "2": 2.7}},
                "assignment position of contraction 0 must be an integer, got 0.7",
            ),
            (
                lambda doc: {**doc, "assignment_positions": {"0": 0, "1": True, "2": 2}},
                "assignment position of contraction 1 must be an integer, got true",
            ),
            (
                lambda doc: {**doc, "assignment_positions": {"0": 0, "1": "1", "2": 2}},
                'assignment position of contraction 1 must be an integer, got "1"',
            ),
            (
                lambda doc: {**doc, "loop_orders": {**doc["loop_orders"], "0": "rjpqi"}},
                'loop order of contraction 0 must be a list of index names, got "rjpqi"',
            ),
            (
                lambda doc: {**doc, "mode_orders": {**doc["mode_orders"], "A": {"perm": "120"}}},
                "perm of tensor 'A' must be a list of integers, got \"120\"",
            ),
            (
                lambda doc: {**doc, "assignment_positions": {"0": 0, " 1": 1, "0_2": 2}},
                'assignment_positions key " 1" must be written "1"',
            ),
            (
                lambda doc: {
                    **doc, "loop_orders": {"00" if k == "0" else k: v for k, v in doc["loop_orders"].items()}
                },
                'loop_orders key "00" must be written "0"',
            ),
            (
                lambda doc: {**doc, "assignment_positions": {"0": 0, "1": 1, "01": 1, "2": 2}},
                'assignment_positions key "01" must be written "1"',
            ),
            (
                lambda doc: {
                    **doc,
                    "mode_orders": {**doc["mode_orders"], "A": {"perm": [1, 2, 0], "indices": ["i", "q", "p"]}},
                },
                "indices of tensor 'A' must be [\"p\", \"q\", \"i\"], the layout its perm gives, "
                "got [\"i\", \"q\", \"p\"]",
            ),
        ],
        ids=[
            "bound-only", "list", "non-integer-id", "bound-0", "float-bound", "float-positions",
            "bool-position", "string-position", "string-loop-order", "string-perm",
            "padded-ids", "zero-padded-id", "second-key-for-an-id", "indices-against-perm",
        ],
    )
    def test_malformed_solution_exits_with_an_error_line(self, tamper, message, running_net, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        assert main(["plan", "--network", str(running_net), "--solution", str(sol_path)]) == 0
        sol_path.write_text(json.dumps(tamper(json.loads(sol_path.read_text()))))
        capsys.readouterr()
        assert main(["verify", "--network", str(running_net), "--solution", str(sol_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestBenchCmd:
    def test_bench_mttkrp_with_check(self, capsys):
        code = main(["bench", "--kind", "mttkrp1", "--extents", "10x12x14",
                     "--rank", "4", "--density", "0.05", "--seed", "3", "--check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pass" in out

    def test_bench_out_dir_round_trips(self, tmp_path, capsys):
        out_dir = tmp_path / "inst"
        code = main(["bench", "--kind", "running_example", "--extents", "5",
                     "--density", "0.3", "--seed", "9", "--check",
                     "--out-dir", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["kind"] == "running_example"
        assert (out_dir / "network.net").exists()
        for name, fname in manifest["tensors"].items():
            assert (out_dir / fname).exists()
        # re-run from the emitted files
        argv = ["run", "--network", str(out_dir / "network.net"), "--check"]
        for name, fname in manifest["tensors"].items():
            argv += ["--tensor", f"{name}={out_dir / fname}"]
        assert main(argv) == 0

    def test_check_beyond_the_dense_budget_exits_with_an_error_line(self, monkeypatch, capsys):
        # the n-ary space (480,000 cells) and leaf T (60,000) exceed the
        # budget, intermediate W (12,000) does not: the unfused oracle must
        # refuse T before densifying it
        monkeypatch.setattr(check, "DENSE_SPACE_BUDGET", 50_000)
        code = main(["bench", "--kind", "mttkrp1", "--extents", "30x40x50", "--seed", "1", "--check"])
        captured = capsys.readouterr()
        assert code == 1
        assert "check against" not in captured.out
        assert captured.err.count("error:") == 1
        assert captured.err.endswith("\nerror: input 'T' needs 60000 dense cells\n")

    def test_bad_density(self, capsys):
        assert main(["bench", "--kind", "ttmc1", "--seed", "1", "--density", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: density must be a number in [0, 1], got -1.0\n"

    @pytest.mark.parametrize("extents, message", [
        ("3x3", "kind 'mttkrp1' takes 3 extents, got 2"),
        ("3xa", "bad --extents '3xa'; expected <e1>x<e2>x..."),
    ])
    def test_bad_extents(self, extents, message, capsys):
        assert main(["bench", "--kind", "mttkrp1", "--seed", "1", "--extents", extents]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--extents", "3000000x3000000x3000000", "--density", "0", "--seed", "1"],
         "synthetic shape (3000000, 3000000, 3000000) has 27000000000000000000 cells, more than numpy can draw from"),
        (["--extents", "3x4x5", "--seed", "-1"], "seed must be a non-negative integer, got -1"),
    ])
    def test_synthetic_input_off_the_happy_path_exits_with_an_error_line(self, argv, message, capsys):
        assert main(["bench", "--kind", "mttkrp1", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--kind", "mttkrp1"])

    def test_an_abbreviated_option_is_an_error(self, tmp_path, monkeypatch, capsys):
        # bench has no --out; read as a prefix of --out-dir, it wrote the
        # network and inputs into a directory named like the result file
        monkeypatch.chdir(tmp_path)
        argv = ["bench", "--kind", "running_example", "--extents", "4", "--seed", "1", "--out", "r.tns"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: --out r.tns\n")
        assert list(tmp_path.iterdir()) == []

    def test_no_subcommand_takes_an_abbreviated_option(self, running_net, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--net", str(running_net)])
        assert exc.value.code == 2
        assert "the following arguments are required: --network" in capsys.readouterr().err
