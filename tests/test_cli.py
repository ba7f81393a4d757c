"""End-to-end CLI behavior: subcommands, files, exit codes, determinism."""

from __future__ import annotations

import json

import pytest

from fusetree import read_tns
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

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.net"
        bad.write_text("R[i,j] == T[i,k] * S[k,j]\n")
        assert main(["plan", "--network", str(bad)]) == 1

    def test_extent_mismatch_diagnostic_names_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.net"
        bad.write_text("extent k 4\nextent k 5\nR[i,j] = T[i,k] * S[k,j]\n")
        assert main(["plan", "--network", str(bad)]) == 1
        assert "'k'" in capsys.readouterr().err

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

        def wrong_oracle(tree, tensors, budget=0):
            shape = tree.ref_shape(tree.root.result)
            return coo_from_entries([((0,) * len(shape), 123.0)], shape)

        monkeypatch.setattr(cli, "oracle_nary", wrong_oracle)
        argv = ["run", "--network", str(running_net), "--check"]
        for name in ("A", "B", "C", "D"):
            argv += ["--synthetic", f"{name}=6x6x6:0.2:{ord(name)}"]
        assert main(argv) == 3

    def test_bad_synthetic_spec(self, running_net):
        assert main(["run", "--network", str(running_net), "--synthetic", "A=oops"]) == 1


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
        ],
        ids=["bound-only", "list", "non-integer-id", "bound-0"],
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

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--kind", "mttkrp1"])
