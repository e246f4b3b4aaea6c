import io
import json
import random
import time
from fractions import Fraction

import pytest

from ceviangeo import cli
from ceviangeo.cli import MAX_COORD_DIGITS, main, parse_document
from ceviangeo.errors import NonConcurrent
from ceviangeo.svgfig import FIGURE_IDS

DOC = json.dumps({
    "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
    "point": {"bary": ["1", "2", "3"]},
})


def run_cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_derive_includes_isotomcomplement(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(DOC)
    code, out, err = run_cli(["derive", "--input", str(path)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["Q"]["bary"] == ["5", "8", "9"]
    assert doc["Q_prime"]["bary"] == ["5", "4", "3"]
    assert doc["flags"] == []


def test_derive_centroid(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
        "point": {"bary": ["1", "1", "1"]},
    }))
    code, out, _ = run_cli(["derive", "--input", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["Q"]["bary"] == ["1", "1", "1"]


def test_derive_cartesian_point_input(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
        "point": {"cart": ["1/3", "1/3"]},
    }))
    code, out, _ = run_cli(["derive", "--input", str(path)])
    assert code == 0
    assert json.loads(out)["P"]["bary"] == ["1", "1", "1"]


def test_derive_rejects_sideline_point(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
        "point": {"bary": ["0", "1", "2"]},
    }))
    code, out, err = run_cli(["derive", "--input", str(path)])
    assert code == 2 and out == ""
    assert "ON_SIDELINE" in err


def test_derive_rejects_malformed_document(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"triangle": [[0, 0], [1, 0]]}')
    code, _, err = run_cli(["derive", "--input", str(path)])
    assert code == 2
    assert "triangle" in err


def test_derive_output_is_deterministic(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(DOC)
    _, first, _ = run_cli(["derive", "--input", str(path)])
    _, second, _ = run_cli(["derive", "--input", str(path)])
    assert first == second


def test_derive_emits_exact_rational_strings(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(DOC)
    _, out, _ = run_cli(["derive", "--input", str(path)])
    doc = json.loads(out)
    assert doc["D"][1]["cart"] == ["2/5", "3/5"]
    assert doc["P"]["cart"] == ["1/3", "1/2"]


def test_check_generic_passes():
    code, out, _ = run_cli(["check", "--seed", "7", "--n", "10", "--stratum", "generic"])
    assert code == 0
    assert "0 FAIL" in out.splitlines()[-1]


def test_check_id_filter_restricts_lines():
    code, out, _ = run_cli(["check", "--seed", "7", "--n", "5",
                            "--stratum", "on-steiner", "--ids", "T3_13"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("summary:")
    assert all(l.startswith("T3_13 PASS") for l in lines[:-1])


def test_check_unknown_id_is_usage_error():
    code, out, err = run_cli(["check", "--ids", "NOPE"])
    assert code == 2 and out == ""
    assert "NOPE" in err


@pytest.mark.parametrize("n", ["0", "-5"])
def test_check_rejects_non_positive_n(n):
    code, out, err = run_cli(["check", "--n", n])
    assert code == 2 and out == ""
    assert "--n must be a positive" in err


def test_check_unknown_stratum_is_usage_error():
    code, _, _ = run_cli(["check", "--stratum", "bogus"])
    assert code == 2


def test_missing_subcommand_is_usage_error():
    code, _, _ = run_cli([])
    assert code == 2


def test_figure_half_turn_labels(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(DOC)
    out_path = tmp_path / "fig.svg"
    code, _, err = run_cli(["figure", "--input", str(doc),
                            "--figure", "half_turn", "--out", str(out_path)])
    assert code == 0, err
    svg = out_path.read_text()
    assert svg.startswith("<?xml")
    assert 'version="1.1"' in svg
    for label in ("N₁", "A₀", "A₀′"):
        assert f">{label}</text>" in svg


def test_figure_collinearity_pencils(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(DOC)
    code, out, _ = run_cli(["figure", "--input", str(doc),
                            "--figure", "collinearity", "--out", "-"])
    assert code == 0
    for label in ("A₀", "A₅", "D₂", "X"):
        assert f">{label}</text>" in out


def test_figure_requires_ordinary_points(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
        "point": {"bary": ["2", "3", "-5"]},
    }))
    code, _, err = run_cli(["figure", "--input", str(doc),
                            "--figure", "half_turn", "--out", "-"])
    assert code == 2
    assert "ordinary" in err


def test_figure_trace_circle_unavailable_on_right_triangle(tmp_path):
    # the cyclocevian image of the centroid is the right-angle vertex A
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
        "point": {"bary": ["1", "1", "1"]},
    }))
    code, out, err = run_cli(["figure", "--input", str(doc),
                              "--figure", "trace_circle", "--out", "-"])
    assert code == 2 and out == ""
    assert "trace circle undefined" in err


def test_figure_unknown_id(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(DOC)
    code, _, err = run_cli(["figure", "--input", str(doc),
                            "--figure", "nope", "--out", "-"])
    assert code == 2
    assert "unknown figure" in err


def test_figure_deterministic(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(DOC)
    _, first, _ = run_cli(["figure", "--input", str(doc),
                           "--figure", "trace_circle", "--out", "-"])
    _, second, _ = run_cli(["figure", "--input", str(doc),
                            "--figure", "trace_circle", "--out", "-"])
    assert first == second and first.startswith("<?xml")


def test_parse_document_round_trip():
    triangle, p = parse_document(DOC)
    assert p.to_xy() == (pytest.approx(1 / 3), pytest.approx(1 / 2))


def test_parse_document_rejects_bad_point():
    with pytest.raises(ValueError):
        parse_document(json.dumps({
            "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
            "point": {"bary": ["1", "2"]},
        }))
    with pytest.raises(ValueError):
        parse_document(json.dumps({
            "triangle": [["0", "0"], ["1", "0"], ["0", "1"]],
            "point": {"cart": ["1", "2"], "bary": ["1", "1", "1"]},
        }))


def _doc_with(coordinate):
    return json.dumps({
        "triangle": [[coordinate, "0"], ["1", "0"], ["0", "1"]],
        "point": {"bary": ["1", "2", "3"]},
    })


@pytest.mark.parametrize("coordinate", ["1e20000", "1e100000", "-1E-100000", "1_0e1_000"])
def test_huge_exponent_rejected_quickly(tmp_path, coordinate):
    path = tmp_path / "doc.json"
    path.write_text(_doc_with(coordinate))
    start = time.monotonic()
    code, out, err = run_cli(["derive", "--input", str(path)])
    assert time.monotonic() - start < 1.0
    assert code == 2 and out == ""
    assert f"at most {MAX_COORD_DIGITS} digits" in err


def test_unexpected_geometry_error_is_usage_error(tmp_path, monkeypatch):
    # any GeometryError or ValueError a handler lets through maps to exit 2
    def broken(*args, **kwargs):
        raise NonConcurrent("lines do not concur")

    monkeypatch.setattr(cli, "build_configuration", broken)
    path = tmp_path / "doc.json"
    path.write_text(DOC)
    code, out, err = run_cli(["derive", "--input", str(path)])
    assert code == 2 and out == ""
    assert err == "error: lines do not concur\n"


def test_huge_integer_literal_rejected(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"triangle": [[' + "7" * 5000 + ', 0], [1, 0], [0, 1]], '
                    '"point": {"bary": [1, 2, 3]}}')
    code, out, err = run_cli(["derive", "--input", str(path)])
    assert code == 2 and out == "" and err.startswith("error:")


def test_coordinate_one_digit_past_the_bound_rejected(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(_doc_with("1/" + "9" * (MAX_COORD_DIGITS + 1)))
    code, _, err = run_cli(["derive", "--input", str(path)])
    assert code == 2
    assert f"at most {MAX_COORD_DIGITS} digits" in err


def test_document_at_the_bound_derives_and_renders(tmp_path):
    rng = random.Random(3)

    def at_bound():
        top = 10 ** MAX_COORD_DIGITS
        num = rng.randrange(top // 10, top) * rng.choice((1, -1))
        return f"{num}/{rng.randrange(top // 10, top)}"

    path = tmp_path / "doc.json"
    path.write_text(json.dumps({
        "triangle": [[at_bound(), at_bound()] for _ in range(3)],
        "point": {"bary": [at_bound() for _ in range(3)]},
    }))
    code, out, err = run_cli(["derive", "--input", str(path)])
    assert code == 0, err
    assert json.loads(out)["flags"] == []
    for figure in FIGURE_IDS:
        code, svg, err = run_cli(["figure", "--input", str(path), "--figure", figure, "--out", "-"])
        assert code == 0, (figure, err)
        assert svg.startswith("<?xml")


def test_64_bit_documents_stay_well_inside_the_bound():
    # the tall benchmark documents: 64-bit numerators and denominators
    biggest = str((1 << 64) - 1)
    assert len(biggest) * 5 <= MAX_COORD_DIGITS
    denominator = biggest[:-1] + "7"
    triangle, _ = parse_document(_doc_with(f"-{biggest}/{denominator}"))
    assert triangle.A.to_xy()[0] == -Fraction(int(biggest), int(denominator))
