import json
from fractions import Fraction
from pathlib import Path

import pytest

from toric_cartier import birational
from toric_cartier.cli import main
from toric_cartier.errors import InstanceError
from toric_cartier.instance import build_triple, parse_instance, serialize_instance

WORKED = """\
# the worked instance
format_version = 1
dimension = 2
rays = (1,0) (1,3)
w = (-1,-2)
p = 2
e = 1
"""

TRIPLE = """\
format_version = 1
dimension = 2
rays = (1,0) (1,3)
w = (-1,-2)
p = 3
e = 1
a = (2,1) (1,3)
t = 1/2
"""


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.instance"
    path.write_text(WORKED)
    return path


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_worked_instance(self):
        cfg = parse_instance(WORKED)
        assert cfg.rays == ((1, 0), (1, 3))
        assert cfg.w == (-1, -2)
        assert cfg.p == 2 and cfg.e == 1
        assert cfg.a_generators is None and cfg.t == 0

    def test_triple_instance(self):
        cfg = parse_instance(TRIPLE)
        assert cfg.a_generators == ((2, 1), (1, 3))
        assert cfg.t == Fraction(1, 2)

    def test_round_trip(self):
        for text in (WORKED, TRIPLE):
            cfg = parse_instance(text)
            assert parse_instance(serialize_instance(cfg)) == cfg

    def test_p_in_denominator_rejected(self):
        bad = WORKED + "t = 1/2\n"
        with pytest.raises(InstanceError, match="denominator"):
            parse_instance(bad)

    def test_both_w_and_divisor_rejected(self):
        bad = WORKED + "divisor = 3 2\n"
        with pytest.raises(InstanceError, match="exactly one"):
            parse_instance(bad)

    def test_missing_required_field(self):
        with pytest.raises(InstanceError, match="missing required field 'p'"):
            parse_instance("dimension = 2\nrays = (1,0) (0,1)\ne = 1\nw = (0,0)\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(InstanceError, match="line 3"):
            parse_instance("dimension = 2\nrays = (1,0) (1,3)\nw = not-a-vector\np = 2\ne = 1\n")

    def test_divisor_instance_converts(self):
        text = WORKED.replace("w = (-1,-2)", "divisor = 3 2")
        tr, resolved = build_triple(parse_instance(text))
        assert tr.cartier.w == (-1, -2)
        assert resolved.w == (-1, -2)


class TestCommands:
    def test_enumerate_document(self, worked_file, capsys):
        code, out = run(["enumerate", "--instance", worked_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "enumerate"
        assert doc["count"] == 6
        serialized = [r["serialized"] for r in doc["records"]]
        assert serialized[0] == "0"
        assert "(2,3) (2,4)" in serialized
        assert doc["records"][1]["monomials"] == ["xy^2"]
        assert doc["extremal"]["smallest_nonzero"]["serialized"] == "(2,3) (2,4)"
        assert doc["extremal"]["largest"]["serialized"] == "(1,2)"
        assert "timing_ms" not in doc

    def test_enumerate_is_byte_stable(self, worked_file, capsys):
        _, first = run(["enumerate", "--instance", worked_file], capsys)
        _, second = run(["enumerate", "--instance", worked_file], capsys)
        assert first == second

    def test_verify_fixed_exit_zero(self, worked_file, capsys):
        code, out = run(["verify", "--instance", worked_file, "--ideal", "(1,2)"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "fixed"

    def test_verify_not_fixed_exit_one(self, worked_file, capsys):
        code, out = run(["verify", "--instance", worked_file, "--ideal", "(1,1)"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "not_fixed"
        assert doc["witness"] is not None

    def test_verify_zero_ideal(self, worked_file, capsys):
        code, out = run(["verify", "--instance", worked_file, "--ideal", "0"], capsys)
        assert code == 0

    def test_test_ideal_command(self, tmp_path, capsys):
        path = tmp_path / "w01.instance"
        path.write_text(WORKED.replace("w = (-1,-2)", "w = (0,1)").replace("p = 2", "p = 3"))
        code, out = run(["test-ideal", "--instance", path], capsys)
        assert code == 0
        assert json.loads(out)["test_ideal"]["generators"] == [[1, 0], [1, 1], [1, 2]]

    def test_stable_image_command(self, worked_file, capsys):
        code, out = run(["stable-image", "--instance", worked_file], capsys)
        doc = json.loads(out)
        assert doc["stable_image"]["serialized"] == "(1,2)"
        assert doc["stable_image"] == doc["largest_fixed"] | {"serialized": "(1,2)"}

    def test_non_lc_command(self, worked_file, capsys):
        code, out = run(["non-lc", "--instance", worked_file], capsys)
        assert json.loads(out)["non_lc_ideal"]["serialized"] == "(1,2)"

    def test_cross_validate_command(self, worked_file, capsys):
        code, out = run(["cross-validate", "--instance", worked_file], capsys)
        assert code == 0
        assert json.loads(out)["report"]["passed"] is True

    def test_cross_validate_reports_perturbation_mismatch(self, tmp_path, capsys, monkeypatch):
        # pinning the relative-interior point to the base point perturbs
        # every face towards the whole region, so the lower faces stabilize
        # on the largest fixed ideal instead of their face ideals
        monkeypatch.setattr(birational, "_relint_point", lambda sn, face: sn.base)
        path = tmp_path / "orthant.instance"
        path.write_text(WORKED.replace("(1,0) (1,3)", "(1,0) (0,1)").replace("(-1,-2)", "(0,0)"))
        code, out = run(["cross-validate", "--instance", path], capsys)
        assert code == 1
        checks = {c["name"]: c["status"] for c in json.loads(out)["report"]["checks"]}
        assert checks.pop("perturbation-per-face") == "fail"
        assert "fail" not in checks.values()

    def test_invalid_input_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.instance"
        path.write_text(WORKED + "t = 1/2\n")
        code = main(["enumerate", "--instance", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "old, new",
        [("p = 2", "p = 4"), ("p = 2", "p = 0"), ("e = 1", "e = 0"), ("w = (-1,-2)", "divisor = 1 1 1")],
    )
    def test_invalid_values_exit_two(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.instance"
        path.write_text(WORKED.replace(old, new))
        code = main(["enumerate", "--instance", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "text, limit, period",
        [(WORKED, "0", 1), (WORKED, "-3", 1), (TRIPLE.replace("t = 1/2", "t = 2/5"), "3", 4)],
    )
    def test_verify_below_period_exit_two(self, tmp_path, capsys, text, limit, period):
        # no graded piece lies below the period, so a pass would be vacuous
        path = tmp_path / "instance"
        path.write_text(text)
        code = main(["verify", "--instance", str(path), "--ideal", "(2,2)", "--N", limit])
        assert code == 2
        assert f"below the period {period}" in capsys.readouterr().err

    def test_line_cone_exit_two(self, tmp_path, capsys):
        path = tmp_path / "line.instance"
        path.write_text(WORKED.replace("rays = (1,0) (1,3)", "rays = (1,0) (-1,0)"))
        code = main(["enumerate", "--instance", str(path)])
        assert code == 2

    def test_out_file(self, worked_file, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["enumerate", "--instance", str(worked_file), "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["count"] == 6

    def test_timing_opt_in(self, worked_file, capsys):
        _, out = run(["enumerate", "--instance", worked_file, "--timing"], capsys)
        assert "timing_ms" in json.loads(out)


class TestPlot:
    def test_structure(self, worked_file, capsys):
        code, out = run(["plot", "--instance", worked_file], capsys)
        assert code == 0
        assert out.startswith("<svg")
        assert out.count("<text") == 6  # one label per record
        assert out.count('stroke-dasharray') >= 6  # shifted boundary, per panel
        assert out.count('fill-opacity="0.4"') == 5  # shaded span per nonzero record
        assert 'fill="white" stroke="black"' in out  # open circle at the base point

    def test_deterministic_bytes(self, worked_file, capsys):
        _, first = run(["plot", "--instance", worked_file], capsys)
        _, second = run(["plot", "--instance", worked_file], capsys)
        assert first == second

    def test_matches_golden_file(self, worked_file, capsys):
        _, out = run(["plot", "--instance", worked_file], capsys)
        golden = Path(__file__).parent / "data" / "worked_example.svg"
        assert out == golden.read_text()

    def test_dimension_three_rejected(self, tmp_path):
        path = tmp_path / "d3.instance"
        path.write_text(
            "dimension = 3\nrays = (1,0,0) (0,1,0) (0,0,1)\nw = (1,1,1)\np = 2\ne = 1\n"
        )
        assert main(["plot", "--instance", str(path)]) == 2

    def test_doc_format_rejected_for_plot(self, worked_file):
        assert main(["plot", "--instance", str(worked_file), "--format", "doc"]) == 2
