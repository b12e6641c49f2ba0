import argparse
import dataclasses
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mccool
from mccool.cli import _COMMANDS, build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def refused(capsys, argv):
    """The exit status and stdout of an argv that argparse rejects."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code, capsys.readouterr().out


# the md and csv renderings and the files --out writes, byte for byte;
# the CI goldens pin the JSON of the same commands

PSIGMA_4_JSON = """\
{
  "checks": [
    {
      "detail": {
        "1": 6,
        "2": 6,
        "3": 16,
        "4": 36
      },
      "id": "ranks",
      "pass": true
    },
    {
      "detail": {
        "samples": 60
      },
      "id": "jacobi",
      "pass": true
    },
    {
      "detail": {
        "1": 0,
        "2": 0,
        "3": 0,
        "4": 0
      },
      "id": "tau-kernel",
      "pass": true
    },
    {
      "detail": {
        "1": 0,
        "2": 0,
        "3": 0,
        "4": 0
      },
      "id": "intersection",
      "pass": true
    }
  ],
  "command": "psigma",
  "pass": true
}
"""

VERIFY_OMEGA_JSON = """\
{
  "checks": [
    {
      "detail": {
        "coefficient": "-1",
        "word": "ccbbaa"
      },
      "id": "omega-nonzero-tensor-coefficient",
      "pass": true
    },
    {
      "detail": {},
      "id": "tau-of-omega-vanishes",
      "pass": true
    },
    {
      "detail": {
        "kernel_dim": 1
      },
      "id": "degree6-kernel-lattice-is-generated-by-omega",
      "pass": true
    },
    {
      "detail": {
        "character": [
          1,
          -1,
          1
        ]
      },
      "id": "degree6-character-is-sign",
      "pass": true
    }
  ],
  "command": "verify-omega",
  "pass": true
}
"""

RENDERED = {
    "dims --max-degree 5 --format md": """\
| k | 1 | 2 | 3 | 4 | 5 |
|---|---|---|---|---|---|
| dim L_k | 3 | 3 | 8 | 18 | 48 |
| dim kernel_k | 0 | 0 | 0 | 0 | 0 |
""",
    "dims --max-degree 5 --format csv": """\
# dims.csv
k,ambient,kernel
1,3,0
2,3,0
3,8,0
4,18,0
5,48,0
""",
    "characters --max-degree 7 --format md": """\
| k | 6 | 7 |
|---|---|---|
| character of kernel_k | (1, -1, 1) | (6, 0, 0) |
""",
    "characters --max-degree 5 --format md": """\
| k |
|---|
| character of kernel_k |
""",
    "characters --max-degree 7 --format csv": """\
# characters.csv
k,chi_id,chi_transposition,chi_3cycle
6,1,-1,1
7,6,0,0
""",
    "kernel --degree 6 --format md": """\
degree 6: domain 116, rank 115, kernel 1

- 1*[aabbcc] 1*[aabcbc] 1*[aabccb] 1*[aacbbc] 2*[aacbcb] -1*[abaccb] -1*[abbacc] -1*[abbcac] -1*[abcacb] -2*[abcbac] 1*[acacbb]
""",
    "kernel --degree 6 --format csv": """\
# kernel_6.csv
degree,domain_dim,image_rank,kernel_dim
6,116,115,1
""",
    "stabilize --n 4 --format md": """\
{
  "checks": {
    "embedded_elements_nonzero": true,
    "projection_grid_is_identity": true,
    "tau_kills_each_element": true
  },
  "command": "stabilize",
  "count": 4,
  "n": 4,
  "verified": true
}
""",
    "verify-omega --format csv": "# verify-omega.csv\n" + VERIFY_OMEGA_JSON,
    "psigma --max-degree 4 --seed 3 --format csv": "# psigma.csv\n" + PSIGMA_4_JSON,
}

ALL_CSV_FILES = {
    "characters.csv": """\
k,chi_id,chi_transposition,chi_3cycle
""",
    "dims.csv": """\
k,ambient,kernel
1,3,0
2,3,0
3,8,0
4,18,0
""",
    "psigma.csv": PSIGMA_4_JSON,
    "stabilize.csv": """\
{
  "checks": {
    "embedded_elements_nonzero": true,
    "projection_grid_is_identity": true,
    "tau_kills_each_element": true
  },
  "command": "stabilize",
  "count": 1,
  "n": 3,
  "verified": true
}
""",
    "verify-omega.csv": VERIFY_OMEGA_JSON,
}


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
        code, out = run_cli(capsys, ["kernel", "--degree", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 6
        assert data["domain_dim"] == 116
        assert data["image_rank"] == 115
        assert data["kernel_dim"] == 1
        assert len(data["basis"]) == 1
        assert {"word", "coeff"} == set(data["basis"][0]["terms"][0])

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

    # each removed flag on a subcommand whose argv is otherwise valid
    @pytest.mark.parametrize(
        "flag",
        [
            ["kernel", "--degree", "6", "--threads", "2"],
            ["kernel", "--degree", "6", "--ring", "q"],
            ["kernel", "--degree", "6", "--n", "3"],
            *(
                [*base, "-v"]
                for base in (["dims"], ["kernel", "--degree", "6"], ["verify-omega"],
                             ["characters"], ["stabilize"], ["psigma"], ["all"])
            ),
            *(
                [*base, "--seed", "0"]
                for base in (["dims"], ["kernel", "--degree", "6"], ["verify-omega"],
                             ["characters"], ["stabilize"])
            ),
            *(
                [*base, "--max-degree", "6"]
                for base in (["kernel", "--degree", "6"], ["verify-omega"], ["stabilize"])
            ),
        ],
    )
    def test_removed_flags_are_rejected(self, capsys, flag):
        assert refused(capsys, flag) == (2, "")


class TestDegreeBounds:
    # the top degree of the reference table bounds every degree the CLI solves
    @pytest.mark.parametrize(
        "argv", [["dims", "--max-degree", "10"], ["kernel", "--degree", "10"]], ids=["dims", "kernel"]
    )
    def test_above_the_table_is_refused_before_solving(self, capsys, argv):
        misses = mccool.johnson.kernel_report.cache_info().misses
        assert run_cli(capsys, argv) == (2, "")
        assert mccool.johnson.kernel_report.cache_info().misses == misses

    @pytest.mark.parametrize("command", ["dims", "characters", "psigma", "all"])
    def test_below_one_is_refused_before_solving(self, capsys, command):
        misses = mccool.johnson.kernel_report.cache_info().misses
        assert refused(capsys, [command, "--max-degree", "0"]) == (2, "")
        assert mccool.johnson.kernel_report.cache_info().misses == misses

    def test_reference_table_is_read_once(self, capsys):
        from mccool.cli import _reference_table

        _reference_table.cache_clear()
        assert run_cli(capsys, ["all", "--max-degree", "4"])[0] == 0
        assert _reference_table.cache_info().misses == 1

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

    def test_lattice_check_needs_omega_itself(self, capsys, monkeypatch):
        # 2*omega spans the kernel over Q but generates only an index-2
        # sublattice of it, so the lattice check fails and nothing else
        from mccool import johnson

        solved = johnson.kernel_report
        doubled = dataclasses.replace(solved(6), kernel_basis=(2 * johnson.omega(),))
        monkeypatch.setattr(johnson, "kernel_report", lambda k: doubled if k == 6 else solved(k))
        code, out = run_cli(capsys, ["verify-omega"])
        assert code == 1
        checks = {c["id"]: c["pass"] for c in json.loads(out)["checks"]}
        assert [i for i, ok in checks.items() if not ok] == [
            "degree6-kernel-lattice-is-generated-by-omega"
        ]


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

    def test_all_refuses_a_bad_n_before_solving(self, capsys, monkeypatch):
        from mccool import johnson

        def unsolvable(k):
            raise AssertionError(f"degree {k} solved before --n was checked")

        monkeypatch.setattr(johnson, "kernel_report", unsolvable)
        assert run_cli(capsys, ["all", "--n", "2"]) == (2, "")


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
        from mccool.cli import _PSIGMA_CHECKS, cmd_psigma

        assert list(_PSIGMA_CHECKS) == ["ranks", "jacobi", "tau-kernel", "intersection"]
        _, out = run_cli(capsys, ["psigma", "--max-degree", "3"])
        assert [c["id"] for c in json.loads(out)["checks"]] == list(_PSIGMA_CHECKS)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["psigma", "--check", "nope"])
        capsys.readouterr()
        with pytest.raises(SystemExit, match="unknown psigma check 'nope'"):
            cmd_psigma(3, 0, ["nope"])

    def test_exit_code_contract(self, capsys):
        code, out = run_cli(capsys, ["psigma", "--max-degree", "3"])
        data = json.loads(out)
        assert (code == 0) == data["pass"]


def _flipped_action(bracket):
    """sd_bracket with the action of v's g-part on u's h-part added where
    it is subtracted: the h-action's sign flipped on one side."""
    from mccool import johnson, psigma3

    def flipped(u, v):
        out = bracket(u, v)
        if v.gpart.is_zero() or u.hpart.is_zero():
            return out
        act = psigma3._x_to_c(johnson.tau_apply(v.gpart, psigma3._c_to_x(u.hpart)))
        return psigma3.SDElement(out.hpart + act.scale(2), out.gpart)

    return flipped


class TestPsigmaNegativeControls:
    # each check fails, exit 1 and "pass": false, when the quantity it
    # compares is damaged; the degree-<= 5 kernels are empty, so the
    # dropped kernel vector needs degree 6 (omega)
    @pytest.mark.parametrize(
        "check, name, damage, max_degree",
        [
            ("ranks", "sd_rank", lambda f: lambda k: f(k) + 1, 4),
            ("jacobi", "sd_bracket", _flipped_action, 4),
            ("tau-kernel", "sd_tau_kernel", lambda f: lambda k: f(k)[1:], 6),
            ("intersection", "intersection_kappa", lambda f: lambda k: f(k) + 1, 4),
        ],
        ids=["ranks", "jacobi", "tau-kernel", "intersection"],
    )
    def test_damaged_check_fails(self, capsys, monkeypatch, check, name, damage, max_degree):
        from mccool import psigma3

        argv = ["psigma", "--max-degree", str(max_degree), "--check", check]
        assert run_cli(capsys, argv)[0] == 0
        monkeypatch.setattr(psigma3, name, damage(getattr(psigma3, name)))
        code, out = run_cli(capsys, argv)
        assert code == 1
        assert [(c["id"], c["pass"]) for c in json.loads(out)["checks"]] == [(check, False)]
        assert json.loads(out)["pass"] is False


class TestUnwritableOut:
    # a path that cannot be written exits 2, the code of a refused run,
    # with the reason on stderr and nothing on stdout
    def refused_write(self, capsys, argv, target):
        code = main([*argv, "--out", str(target)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith(f"error: cannot write {target}: ")

    def test_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        self.refused_write(capsys, ["dims", "--max-degree", "3"], target)
        assert not target.parent.exists()

    def test_csv_directory_that_is_a_file(self, capsys, tmp_path):
        target = tmp_path / "tables"
        target.write_text("kept\n")
        self.refused_write(capsys, ["all", "--max-degree", "3", "--format", "csv"], target)
        assert target.read_text() == "kept\n"


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


class TestOptions:
    def test_every_option_has_a_reader(self):
        # --format and --out go to the renderer, every other option to the command
        actions = build_parser()._actions
        commands = next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(_COMMANDS)
        for name, parser in commands.items():
            dests = {a.dest for a in parser._actions if a.dest != "help"} - {"format", "out"}
            assert dests == set(inspect.signature(_COMMANDS[name]).parameters), name

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        lines = [line.strip() for line in readme.splitlines() if line.startswith("    mccool ")]
        assert len(lines) >= len(_COMMANDS)
        assert {shlex.split(line)[1] for line in lines} == set(_COMMANDS)
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])


class TestRenderedBytes:
    @pytest.mark.parametrize("command", list(RENDERED))
    def test_stdout(self, capsys, command):
        assert run_cli(capsys, command.split()) == (0, RENDERED[command])

    def test_all_csv_out(self, capsys, tmp_path):
        outdir = tmp_path / "tables"
        argv = ["all", "--max-degree", "4", "--format", "csv", "--out", str(outdir)]
        assert run_cli(capsys, argv) == (0, "")
        assert {p.name: p.read_text() for p in outdir.iterdir()} == ALL_CSV_FILES

    def test_single_table_out_is_the_file(self, capsys, tmp_path):
        target = tmp_path / "kernel.md"
        argv = ["kernel", "--degree", "6", "--format", "md", "--out", str(target)]
        assert run_cli(capsys, argv) == (0, "")
        assert target.read_text() == RENDERED["kernel --degree 6 --format md"]


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
