import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mccool
from mccool.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestDims:
    def test_json_matches_reference(self, capsys):
        code, out = run_cli(capsys, ["dims", "--max-degree", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["matches_reference"] is True
        assert data["rows"][0] == {"k": 1, "ambient": 3, "kernel": 0}
        assert data["rows"][5] == {"k": 6, "ambient": 116, "kernel": 1}

    def test_markdown_shape(self, capsys):
        code, out = run_cli(capsys, ["dims", "--max-degree", "3", "--format", "md"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("| k |")
        assert "| dim L_k | 3 | 3 | 8 |" in out

    def test_csv(self, capsys, tmp_path):
        target = tmp_path / "dims.csv"
        code, _ = run_cli(
            capsys, ["dims", "--max-degree", "2", "--format", "csv", "--out", str(target)]
        )
        assert code == 0
        assert target.read_text().splitlines()[0] == "k,ambient,kernel"


class TestKernel:
    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, ["kernel", "--n", "3", "--degree", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 6
        assert data["domain_dim"] == 116
        assert data["image_rank"] == 115
        assert data["kernel_dim"] == 1
        assert len(data["basis"]) == 1
        assert {"word", "coeff"} == set(data["basis"][0]["terms"][0])

    def test_rejects_other_n(self, capsys):
        with pytest.raises(SystemExit):
            main(["kernel", "--n", "4", "--degree", "3"])

    def test_ring_is_always_z(self, capsys):
        code, out = run_cli(capsys, ["kernel", "--degree", "6"])
        assert code == 0
        assert json.loads(out)["ring"] == "z"

    @pytest.mark.parametrize("extra", [[], ["--divisors"]], ids=["plain", "divisors"])
    def test_plain_report_is_solved_once(self, capsys, extra):
        # the report and the divisors are each one memo entry per degree,
        # shared by the command and every later caller
        report, divisors = mccool.johnson.kernel_report, mccool.johnson.elementary_divisors
        report.cache_clear()
        divisors.cache_clear()
        run_cli(capsys, ["kernel", "--degree", "5", *extra])
        report(5)
        divisors(5)
        assert report.cache_info()[:2] == (1, 1) and report.cache_info().currsize == 1
        assert divisors.cache_info()[:2] == (len(extra), 1) and divisors.cache_info().currsize == 1

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--ring", "q"]])
    def test_removed_flags_are_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["kernel", "--degree", "6", *flag])
        assert info.value.code == 2


class TestDegreeBounds:
    # the top degree of the reference table bounds every degree the CLI solves
    @pytest.mark.parametrize(
        "argv", [["dims", "--max-degree", "10"], ["kernel", "--degree", "10"]], ids=["dims", "kernel"]
    )
    def test_above_the_table_is_refused_before_solving(self, capsys, argv):
        misses = mccool.johnson.kernel_report.cache_info().misses
        assert run_cli(capsys, argv) == (2, "")
        assert mccool.johnson.kernel_report.cache_info().misses == misses

    @pytest.mark.parametrize("command", ["characters", "psigma"])
    def test_clamped_to_the_table(self, capsys, command):
        code, top = run_cli(capsys, [command, "--max-degree", "9"])
        assert code == 0
        assert run_cli(capsys, [command, "--max-degree", "12"]) == (0, top)


class TestVerifyOmega:
    def test_all_checks_pass(self, capsys):
        code, out = run_cli(capsys, ["verify-omega"])
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        ids = [c["id"] for c in data["checks"]]
        assert len(ids) == 4
        coeff_check = data["checks"][0]
        assert coeff_check["detail"]["word"] == "ccbbaa"
        assert int(coeff_check["detail"]["coefficient"]) != 0

    def test_negative_control(self, capsys):
        code, out = run_cli(capsys, ["verify-omega", "--self-test-corrupt"])
        assert code == 1
        data = json.loads(out)
        failing = {c["id"]: c["pass"] for c in data["checks"]}
        assert failing["tau-of-omega-vanishes"] is False


class TestCharacters:
    def test_degree7(self, capsys):
        code, out = run_cli(capsys, ["characters", "--max-degree", "7"])
        assert code == 0
        data = json.loads(out)
        assert data["characters"]["6"]["character"] == [1, -1, 1]
        assert data["characters"]["7"]["character"] == [6, 0, 0]
        assert data["matches_reference"] is True

    def test_markdown(self, capsys):
        code, out = run_cli(capsys, ["characters", "--max-degree", "6", "--format", "md"])
        assert code == 0
        assert "(1, -1, 1)" in out


class TestStabilize:
    def test_n4(self, capsys):
        code, out = run_cli(capsys, ["stabilize", "--n", "4"])
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 4
        assert data["verified"] is True
        assert data["checks"]["projection_grid_is_identity"] is True


class TestPsigma:
    def test_selected_checks(self, capsys):
        code, out = run_cli(
            capsys,
            ["psigma", "--max-degree", "4", "--check", "ranks", "--check", "jacobi"],
        )
        assert code == 0
        data = json.loads(out)
        assert [c["id"] for c in data["checks"]] == ["ranks", "jacobi"]
        assert data["pass"] is True

    def test_checks_come_from_one_table(self, capsys):
        from mccool.cli import _PSIGMA_CHECKS, RunConfig, build_parser, cmd_psigma

        assert list(_PSIGMA_CHECKS) == ["ranks", "jacobi", "tau-kernel", "intersection"]
        _, out = run_cli(capsys, ["psigma", "--max-degree", "3"])
        assert [c["id"] for c in json.loads(out)["checks"]] == list(_PSIGMA_CHECKS)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["psigma", "--check", "nope"])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="unknown psigma check 'nope'"):
            cmd_psigma(RunConfig(command="psigma", max_degree=3, checks=["nope"]))

    def test_exit_code_contract(self, capsys):
        code, out = run_cli(capsys, ["psigma", "--max-degree", "3"])
        data = json.loads(out)
        assert (code == 0) == data["pass"]


class TestDeterminism:
    def test_identical_bytes(self, capsys):
        _, out1 = run_cli(capsys, ["psigma", "--max-degree", "4", "--seed", "5"])
        _, out2 = run_cli(capsys, ["psigma", "--max-degree", "4", "--seed", "5"])
        assert out1 == out2

    def test_all_low_degree(self, capsys, tmp_path):
        code, out = run_cli(capsys, ["all", "--max-degree", "4", "--n", "3"])
        assert code == 0
        data = json.loads(out)
        assert set(data["reports"]) == {
            "dims",
            "verify_omega",
            "characters",
            "stabilize",
            "psigma",
        }
        assert data["pass"] is True

    def test_all_csv_one_file_per_table(self, capsys, tmp_path):
        outdir = tmp_path / "tables"
        code, _ = run_cli(
            capsys,
            ["all", "--max-degree", "4", "--format", "csv", "--out", str(outdir)],
        )
        assert code == 0
        names = sorted(p.name for p in outdir.iterdir())
        assert "dims.csv" in names and "characters.csv" in names


class TestOptimizedInterpreter:
    """Certification must not depend on assert statements, which -O strips."""

    @staticmethod
    def _run(flags, args):
        src = str(Path(mccool.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *flags, "-m", "mccool.cli", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    @pytest.mark.parametrize(
        "args", [["verify-omega"], ["dims", "--max-degree", "7"]], ids=["omega", "dims7"]
    )
    def test_same_output_under_O(self, args):
        plain = self._run([], args)
        optimized = self._run(["-O"], args)
        assert plain.returncode == 0, plain.stderr
        assert optimized.returncode == 0, optimized.stderr
        assert optimized.stdout == plain.stdout
