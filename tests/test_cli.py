import json
import subprocess
import sys


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mfvc.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_milnor_text():
    code, out, _ = run_cli("milnor", "--family", "chain", "--p", "3", "--q", "4", "--format", "text")
    assert code == 0
    assert out.strip() == "10"


def test_unknown_flag_exits_2():
    code, _, _ = run_cli("milnor", "--family", "chain", "--p", "3", "--q", "4", "--bogus")
    assert code == 2


def test_invalid_family_exits_2():
    code, _, _ = run_cli("milnor", "--family", "fermat", "--p", "3", "--q", "4")
    assert code == 2


def test_invalid_pq_exits_2():
    code, _, err = run_cli("quiver", "--family", "loop", "--p", "1", "--q", "4")
    assert code == 2


def test_mirror_check_json_and_exit_code():
    code, out, _ = run_cli("mirror-check", "--family", "loop", "--p", "2", "--q", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["schema"] == "1"


def test_json_output_is_byte_identical_across_runs():
    for args in (
        ("homtable", "--family", "bp", "--p", "3", "--q", "3"),
        ("invariants", "--family", "loop", "--p", "4", "--q", "6"),
        ("quiver", "--family", "loop", "--p", "3", "--q", "3", "--side", "both"),
        ("signs", "--family", "loop", "--p", "4", "--q", "4", "--seed", "3"),
    ):
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2, args


def test_quiver_dot_round_trip():
    from mfvc.cli import parse_dot

    code, out, _ = run_cli("quiver", "--family", "bp", "--p", "3", "--q", "3",
                           "--side", "B", "--format", "dot")
    assert code == 0
    nodes, edges = parse_dot(out)
    assert len(nodes) == 4
    assert len(edges) == 4


def test_quiver_json_counts():
    code, out, _ = run_cli("quiver", "--family", "chain", "--p", "3", "--q", "4", "--side", "B")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 10
    assert len(payload["arrows"]) == 11


def test_signs_subcommand():
    code, out, _ = run_cli("signs", "--family", "loop", "--p", "5", "--q", "5", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["squares_commute"] is True


def test_transport_verify_csv():
    code, out, _ = run_cli("transport-verify", "--family", "loop", "--p", "2", "--q", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "l,m,s,angle_error,modulus_error,steps"
    assert len(lines) > 1
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 6
        assert float(parts[3]) <= 1e-6


def test_side_a_quiver():
    code, out, _ = run_cli("quiver", "--family", "loop", "--p", "2", "--q", "2", "--side", "A")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4
    assert len(payload["arrows"]) == 3


def test_negative_degree_window_is_rejected():
    for command in ("mirror-check", "homtable"):
        code, out, err = run_cli(command, "--family", "loop", "--p", "2", "--q", "3",
                                 "--degree-window", "-1")
        assert code == 2, command
        assert out == ""
        assert "error:" in err and "Traceback" not in err


def _mirror_check_in_process(capsys):
    from mfvc.cli import main

    code = main(["mirror-check", "--family", "loop", "--p", "2", "--q", "3"])
    return code, json.loads(capsys.readouterr().out)


def test_b_side_hom_table_deviation_gives_report(monkeypatch, capsys):
    from mfvc import bside

    monkeypatch.setattr(bside, "expected_hom_dim", lambda spec, a, b, degree: 7)
    code, payload = _mirror_check_in_process(capsys)
    assert code == 1
    assert payload["pass"] is False
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "hom_table"
    assert "closed form" in mismatch["detail"]


def test_b_side_composition_deviation_gives_report(monkeypatch, capsys):
    from fractions import Fraction

    from mfvc import bside

    monkeypatch.setattr(bside, "compose_and_identify", lambda f, g, coh: [Fraction(2)])
    code, payload = _mirror_check_in_process(capsys)
    assert code == 1
    [mismatch] = payload["mismatches"]
    assert mismatch["kind"] == "b_side" and mismatch["stage"] == "composition_table"


def test_format_a_command_does_not_write_exits_2():
    for args in (
        ("mirror-check", "--family", "loop", "--p", "2", "--q", "3", "--format", "dot"),
        ("quiver", "--family", "loop", "--p", "2", "--q", "3", "--format", "text"),
        ("transport-verify", "--family", "loop", "--p", "2", "--q", "2", "--format", "json"),
    ):
        code, out, err = run_cli(*args)
        assert code == 2, args
        assert out == "" and "Traceback" not in err


def test_out_writes_the_same_bytes_as_stdout(tmp_path):
    for args in (
        ("milnor", "--family", "chain", "--p", "3", "--q", "4"),
        ("quiver", "--family", "bp", "--p", "3", "--q", "3", "--format", "dot"),
        ("invariants", "--family", "loop", "--p", "2", "--q", "3"),
    ):
        path = tmp_path / "out.txt"
        code, out, _ = run_cli(*args)
        assert run_cli(*args, "--out", str(path)) == (code, "", "")
        assert path.read_text() == out, args
