"""The JSON that `Frozen.to_json_obj` derives from a value class's fields,
and the emitted results' JSON and CSV, pinned to literals taken before the
hand-written serializers were replaced by the derived one."""

import importlib
import json
import pickle
import pkgutil

import pytest

import stemsize
from stemsize._frozen import Frozen
from stemsize.algebra import AlgebraSpec, GeneratorFamily
from stemsize.asymptotics import BracketCheck, BracketReport, bracketing_check, ratio_profile
from stemsize.cli import main
from stemsize.dsl import BinOp, Lit, Min, Var
from stemsize.ehp import enumerate_I
from stemsize.presets import preset
from stemsize.series import GeneratorKind
from stemsize.torsion import (
    LinearCurve,
    PowerLawCurve,
    TableCurve,
    TorsionReport,
    stable_torsion_bound,
)


# The unit tests use the package's own value classes: a Frozen subclass
# defined here would join the set that tests/test_algebra.py pins.
def test_fields_in_slot_order_by_default():
    obj = BracketCheck(detail="d", ok=True, name="upper").to_json_obj()
    assert obj == {"name": "upper", "ok": True, "detail": "d"}
    assert list(obj) == ["name", "ok", "detail"]


def test_json_names_a_property_in_its_order():
    report = BracketReport(2, 4, "may_model", (BracketCheck("upper", True, "a"),
                                               BracketCheck("lower", False, "b")))
    obj = report.to_json_obj()
    assert list(obj) == ["p", "m", "model", "ok", "checks"]
    assert obj["ok"] is False
    assert TableCurve((1, 2, 2)).to_json_obj() == {"model": "table", "length": 3}
    assert list(PowerLawCurve(0.5, 2.0).to_json_obj()) == ["model", "exponent", "coefficient"]


def test_nested_value_classes_and_tuples_of_tuples():
    family = GeneratorFamily(GeneratorKind.truncated(3), BinOp("*", Lit(2), Var("i")),
                             Min(Var("j"), Lit(4)), (("i", 1, None), ("j", 0, 5)))
    spec = AlgebraSpec(3, (family,), "demo")
    obj = spec.to_json_obj()
    assert obj == {"p": 3, "families": [{
        "kind": {"name": "trunc", "order": 3},
        "degree": {"op": "*", "left": {"value": 2}, "right": {"name": "i"}},
        "multiplicity": {"left": {"name": "j"}, "right": {"value": 4}},
        "ranges": [["i", 1, None], ["j", 0, 5]],
    }], "label": "demo"}
    assert json.loads(json.dumps(obj)) == obj
    assert spec == AlgebraSpec(3, (family,), "demo")  # writing it changed nothing


def test_a_value_of_another_type_is_written_as_it_is():
    curve = {"model": "linear"}
    report = TorsionReport(2, 10, 7, 1.5, curve)
    assert report.to_json_obj() == {"p": 2, "n": 10, "exact_sum": 7, "closed_form": 1.5,
                                    "curve": curve}
    assert report.to_json_obj()["curve"] is curve


def _value_classes():
    for info in pkgutil.iter_modules(stemsize.__path__):
        importlib.import_module(f"stemsize.{info.name}")
    pending, found = [Frozen], []
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("stemsize."):
                found.append(sub)
    return found


def test_only_constants_writes_its_own_json():
    classes = _value_classes()
    assert len(classes) >= 18
    own = [cls.__name__ for cls in classes if "to_json_obj" in cls.__dict__]
    assert own == ["Constants"]
    assert [cls.__name__ for cls in classes if hasattr(cls, "describe")] == []


def test_ratio_profile_json():
    obj = ratio_profile(preset("s_k", 2, k=1), 3, [4, 16, 64]).to_json_obj()
    assert obj == {
        "p": 2, "label": "s_k(p=2, k=1)", "exponent": 3, "rows": [
            {"n": 4, "log_rank": 1.3862943611198906, "log_n_pow": 2.6641972159114355,
             "ratio": 0.5203422452514019},
            {"n": 16, "log_rank": 3.58351893845611, "log_n_pow": 21.313577727291484,
             "ratio": 0.16813314893949066},
            {"n": 64, "log_rank": 7.510977752014095, "log_n_pow": 71.93332482960875,
             "ratio": 0.10441582910015126},
        ],
    }
    assert list(obj) == ["p", "label", "exponent", "rows"]


@pytest.mark.parametrize("model, m, checks", [
    ("may_model", 3, [
        {"name": "may_model_upper", "ok": True, "detail": "cumrank(7) = 8 <= 16"},
        {"name": "may_model_lower", "ok": True, "detail": "cumrank(21) = 231 >= 16"},
    ]),
    ("r_h_e2", 4, [
        {"name": "r_h_e2_tensor_bracket", "ok": True,
         "detail": "h = 2: lower 12, middle 8 <= upper 12"},
        {"name": "r_h_e2_factorisation", "ok": True,
         "detail": "hilbert(r_h_e2, h=2) == prod hilbert(s_k), N = 15"},
    ]),
    ("r_h_einf", 3, [
        {"name": "r_h_einf_final", "ok": True,
         "detail": "ln cumrank(7) = 0.000000 <= 6.737391 (margin 6.737391, argmax h = 1)"},
    ]),
])
def test_bracketing_report_json(model, m, checks):
    obj = bracketing_check(2, m, model).to_json_obj()
    assert obj == {"p": 2, "m": m, "model": model, "ok": True, "checks": checks}
    assert list(obj) == ["p", "m", "model", "ok", "checks"]
    assert [list(c) for c in obj["checks"]] == [["name", "ok", "detail"]] * len(checks)


_TORSION = [
    (LinearCurve(), 48,
     '{"p": 3, "n": 48, "exact_sum": 17, "closed_form": 22.52371901428583, '
     '"curve": {"model": "linear"}}',
     ("3", "48", "17", "22.52371901428583", "linear")),
    (PowerLawCurve(0.5), 48,
     '{"p": 3, "n": 48, "exact_sum": 1, "closed_form": 7.148719014285829, '
     '"curve": {"model": "power_law", "exponent": 0.5, "coefficient": 1.0}}',
     ("3", "48", "1", "7.148719014285829", "power_law")),
    (TableCurve((1, 2, 2, 3, 5)), 5,
     '{"p": 3, "n": 5, "exact_sum": 1, "closed_form": 4.339973520717927, '
     '"curve": {"model": "table", "length": 5}}',
     ("3", "5", "1", "4.339973520717927", "table")),
]


@pytest.mark.parametrize("curve, n, text, row", _TORSION, ids=["linear", "sqrt", "table"])
def test_torsion_report_json_and_csv(curve, n, text, row):
    report = stable_torsion_bound(3, n, curve)
    assert report.to_json() == text
    assert report.to_json_obj() == json.loads(text)
    assert list(report.csv_rows()) == [("p", "n", "exact_sum", "closed_form", "curve"), row]


@pytest.mark.parametrize("curve, n, text, row", _TORSION, ids=["linear", "sqrt", "table"])
def test_torsion_report_hashes_and_pickles(curve, n, text, row):
    report = stable_torsion_bound(3, n, curve)
    again = pickle.loads(pickle.dumps(report))
    assert again == report == stable_torsion_bound(3, n, curve)
    assert again != stable_torsion_bound(3, n - 1, curve)
    assert hash(again) == hash(report) and len({report, again}) == 1
    assert again.curve == curve and again.to_json() == text


def test_torsion_cli_writes_the_same_csv(tmp_path, capsys):
    table = tmp_path / "curve.txt"
    table.write_text("1\n2\n2\n3\n5\n")
    for arg, (_, n, text, row) in zip(("linear", "sqrt", f"table:{table}"), _TORSION):
        argv = ["torsion", "--p", "3", "--n", str(n), "--curve", arg]
        assert main([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == f"p,n,exact_sum,closed_form,curve\n{','.join(row)}\n"
        assert main(argv) == 0
        assert capsys.readouterr().out == text + "\n"


@pytest.mark.parametrize("p, tail", [
    (2, [{"p": 2, "n": 1, "entries": [12, 2], "dim": 12},
         {"p": 2, "n": 1, "entries": [13], "dim": 12},
         {"p": 2, "n": 1, "entries": [13, 1], "dim": 12}]),
    (3, [{"p": 3, "n": 1, "entries": [[1, 2]], "dim": 6},
         {"p": 3, "n": 1, "entries": [[1, 3]], "dim": 10},
         {"p": 3, "n": 1, "entries": [[1, 3], [1, 1]], "dim": 12}]),
])
def test_cuseq_json(p, tail):
    objs = [J.to_json_obj() for J in enumerate_I(p, 1, 12)]
    assert objs[-3:] == tail
    assert all(list(obj) == ["p", "n", "entries", "dim"] for obj in objs)
