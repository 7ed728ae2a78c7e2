import json
from pathlib import Path

import pytest

from mvpolar.cli import main

ALG3 = {"kind": "lukasiewicz", "size": 3}
ALGB = {"kind": "boolean", "size": 2}


def dump(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def files(tmp_path):
    diag = {
        "algebra": ALGB,
        "objects": ["a1", "a2"],
        "attributes": ["x1", "x2"],
        "I": [[1, 0], [0, 1]],
    }
    out = {
        "ctx": dump(tmp_path, "ctx.json", diag),
        "frame_zero_box": dump(tmp_path, "frame_zero_box.json", {**diag, "R_box": [[0, 0], [0, 0]]}),
        "frame_full": dump(
            tmp_path,
            "frame_full.json",
            {**diag, "R_box": [[1, 0], [0, 1]], "R_diamond": [[1, 0], [0, 1]]},
        ),
        "frame_incompatible": dump(
            tmp_path,
            "frame_incompatible.json",
            {
                "algebra": ALG3,
                "objects": ["a"],
                "attributes": ["x"],
                "I": [[1]],
                "R_box": [[0]],
                "R_diamond": [[1]],
            },
        ),
        "model": dump(
            tmp_path,
            "model.json",
            {**diag, "V": {"p": {"extent": [1, 0]}, "q": {"extent": [0, 1]}}},
        ),
        "arena": dump(
            tmp_path,
            "arena.json",
            {
                "labels": {"I": "activity level"},
                "objects": ["a", "b"],
                "attributes": ["x", "y"],
                "I": [[1.0, 0.45], [0.5, 0.0]],
                "R_box": [[1.0, 0.5], [0.5, 0.0]],
                "quantize": {"chain_size": 3},
            },
        ),
        "lat2": dump(
            tmp_path,
            "lat2.json",
            {
                "elements": ["e0", "e1"],
                "leq": [[True, True], [False, True]],
                "box": {"e0": "e0", "e1": "e1"},
                "dia": {"e0": "e0", "e1": "e1"},
            },
        ),
        "lat1": dump(
            tmp_path,
            "lat1.json",
            {"elements": ["e0"], "leq": [[True]], "box": {"e0": "e0"}, "dia": {"e0": "e0"}},
        ),
        "bad_custom": dump(
            tmp_path,
            "bad_custom.json",
            {
                "kind": "custom",
                "size": 3,
                "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                "otimes": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                "residuum": [[2, 2, 2], [1, 2, 2], [0, 1, 2]],
            },
        ),
    }
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_pass(capsys):
    code, out, err = run(capsys, "algebra", "--algebra", "lukasiewicz:5")
    assert code == 0 and err == ""
    assert "23 laws hold" in out
    code, out, _ = run(capsys, "algebra", "--algebra", "goedel:3", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"algebra": payload["algebra"], "laws_checked": 23, "ok": True}


def test_algebra_lawless_custom_is_an_input_error(capsys, files):
    code, out, err = run(capsys, "algebra", "--algebra", files["bad_custom"])
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InputError" and "residuation" in payload["message"]


def test_missing_file_reports_on_stderr(capsys, tmp_path):
    code, out, err = run(capsys, "lattice", "--context", str(tmp_path / "absent.json"))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_lattice_outputs(capsys, files):
    code, out, _ = run(capsys, "lattice", "--context", files["ctx"])
    assert code == 0 and "4 concepts" in out
    code, out, _ = run(capsys, "lattice", "--context", files["ctx"], "--out", "dot")
    assert code == 0 and out.count("label=") == 4
    code, out, _ = run(capsys, "lattice", "--context", files["ctx"], "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["concepts"]) == 4 and len(payload["covers"]) == 4


def test_lattice_budget_error(capsys, files):
    code, _, err = run(capsys, "lattice", "--context", files["ctx"], "--budget", "2")
    assert code == 2 and json.loads(err)["error"] == "ResourceError"


def test_lattice_budget_boundary_keeps_the_error_json(capsys, files):
    code, out, err = run(capsys, "lattice", "--context", files["ctx"], "--budget", "3")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ResourceError",
        "message": "concept enumeration exceeded the budget of 3 concepts",
    }
    code, out, _ = run(capsys, "lattice", "--context", files["ctx"], "--budget", "4")
    assert code == 0 and out.endswith("4 concepts\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["l3", "l3xb"])
@pytest.mark.parametrize("mode", ["text", "json", "dot"])
def test_lattice_output_bytes_are_pinned(capsys, monkeypatch, name, mode):
    """Concept order and cover order, byte for byte, over L3 and over the
    L3 x B product (whose index order is not its lattice order); no mode
    builds the order table."""
    from mvpolar.context import ConceptLattice

    built = []
    original = ConceptLattice.order
    monkeypatch.setattr(ConceptLattice, "order", property(lambda lat: built.append(1) or original.fget(lat)))
    code, out, err = run(capsys, "lattice", "--context", str(GOLDEN / f"{name}_context.json"), "--out", mode)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}_lattice.{mode}").read_text()
    assert built == []


def test_check_true_and_false(capsys, files):
    code, out, _ = run(capsys, "check", "--model", files["model"], "--sequent", "p & q |- p")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "check", "--model", files["model"], "--sequent", "p |- q")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False and payload["sequent"] == "p |- q"
    assert payload["witness"] == {
        "object": "a1",
        "lhs_degree": 1,
        "rhs_degree": 0,
        "lhs_value": "1",
        "rhs_value": "0",
    }


def test_check_parse_error(capsys, files):
    code, _, err = run(capsys, "check", "--model", files["model"], "--sequent", "p |-")
    assert code == 2 and json.loads(err)["error"] == "ParseError"


def test_valid_frozen_countermodel(capsys, files):
    code, out, _ = run(capsys, "valid", "--frame", files["frame_zero_box"], "--sequent", "p |- box p")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "invalid"
    assert payload["lattice_size"] == 4 and payload["valuations_checked"] == 2
    assert payload["countermodel"]["p"]["extent"] == [0, 1]
    code, out, _ = run(capsys, "valid", "--frame", files["frame_zero_box"], "--sequent", "p & q |- p")
    assert code == 0 and out.strip() == "valid"


def test_valid_budget(capsys, files):
    code, _, err = run(
        capsys, "valid", "--frame", files["frame_zero_box"], "--sequent", "p & q |- p", "--budget", "3"
    )
    assert code == 2 and json.loads(err)["error"] == "ResourceError"


def test_axioms_frame_modes(capsys, files):
    code, out, _ = run(capsys, "axioms", "--frame", files["frame_full"])
    assert code == 0 and "overall: PASS" in out
    code, out, _ = run(capsys, "axioms", "--frame", files["frame_full"], "--out", "json")
    assert code == 0
    results = json.loads(out)
    assert len(results) == 13
    assert {r["kind"] for r in results} == {"axiom", "rule"}


def test_axioms_needs_exactly_one_mode(capsys, files):
    code, _, err = run(capsys, "axioms")
    assert code == 2 and json.loads(err)["error"] == "UsageError"
    code, _, err = run(capsys, "axioms", "--frame", files["frame_full"], "--samples", "2")
    assert code == 2 and json.loads(err)["error"] == "UsageError"


def test_axioms_refuses_missing_or_incompatible_relations(capsys, files):
    code, _, err = run(capsys, "axioms", "--frame", files["frame_zero_box"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "CapabilityError" and "r_diamond" in payload["message"]
    code, _, err = run(capsys, "axioms", "--frame", files["frame_incompatible"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "InputError" and "unstable" in payload["message"]


def test_axioms_sampled(capsys):
    code, out, _ = run(capsys, "axioms", "--samples", "3", "--seed", "7")
    assert code == 0
    assert out.strip() == "3 sampled frames: all axioms and rules hold"
    code, out2, _ = run(capsys, "axioms", "--samples", "3", "--seed", "7")
    assert code == 0 and out2 == out


def test_canonical_two_chain(capsys, files):
    code, out, _ = run(capsys, "canonical", "--lattice", files["lat2"], "--algebra", "lukasiewicz:3")
    assert code == 0
    assert "overall (required items): PASS" in out
    assert "canonical frame: 1 proper filters x 1 proper ideals" in out
    assert "displayed forms agree: yes" in out and "compatibility: PASS" in out
    code, out, _ = run(
        capsys, "canonical", "--lattice", files["lat2"], "--algebra", "lukasiewicz:3", "--out", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["lemma_checks"]) == 10
    assert payload["surrogate"] == {
        "proper_filters": 1,
        "proper_ideals": 1,
        "forms_agree": True,
        "compatible": True,
    }


def test_canonical_one_chain_has_no_frame(capsys, files):
    code, out, _ = run(capsys, "canonical", "--lattice", files["lat1"], "--algebra", "boolean")
    assert code == 0
    assert "canonical frame not built:" in out
    assert out.endswith("canonical frame not built: the lattice has no proper filters or no proper ideals\n")


def test_canonical_budget_error(capsys, files):
    code, out, err = run(
        capsys, "canonical", "--lattice", files["lat2"], "--algebra", "lukasiewicz:3", "--budget", "8"
    )
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ResourceError",
        "message": "9 candidate maps over 2 elements exceed the budget of 8",
    }
    code, _, _ = run(capsys, "canonical", "--lattice", files["lat2"], "--algebra", "lukasiewicz:3", "--budget", "9")
    assert code == 0


def test_canonical_enumerates_filters_and_ideals_once(capsys, tmp_path, monkeypatch):
    import mvpolar.canonical as canonical

    calls = {"enumerate_filters": 0, "enumerate_ideals": 0}
    for name in calls:
        original = getattr(canonical, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(canonical, name, counted)
    names = ["e0", "e1", "e2"]
    lattice = dump(
        tmp_path,
        "lat3.json",
        {
            "elements": names,
            "leq": [[i <= j for j in range(3)] for i in range(3)],
            "box": {e: e for e in names},
            "dia": {e: e for e in names},
        },
    )
    for out in ("text", "json"):
        calls.update(enumerate_filters=0, enumerate_ideals=0)
        code, _, _ = run(capsys, "canonical", "--lattice", lattice, "--algebra", "lukasiewicz:3", "--out", out)
        assert code == 0
        assert calls == {"enumerate_filters": 1, "enumerate_ideals": 1}


def test_arena_firm_and_refinement(capsys, files):
    code, out, _ = run(capsys, "arena", "--arena", files["arena"], "--op", "firm", "--firm", "a")
    assert code == 0
    assert out.startswith("query: operation=firm_category firm=a")
    assert "extent over firms" in out and "intent over markets" in out
    assert "quantized 1 of 8 raw values onto a 3-element chain" in out
    code, out, _ = run(
        capsys, "arena", "--arena", files["arena"], "--op", "box-refinement", "--firm", "a", "--out", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["query"] == {"operation": "box_refinement_analysis", "firm": "a"}
    assert [l["title"] for l in payload["listings"]] == [
        "target activity profile",
        "refinement degrees over firms",
        "refined concept, intent",
    ]


def test_arena_basket_validation(capsys, files):
    code, out, _ = run(
        capsys, "arena", "--arena", files["arena"], "--op", "basket", "--weights", '{"x": 2}'
    )
    assert code == 0 and "basket_category" in out
    code, _, err = run(capsys, "arena", "--arena", files["arena"], "--op", "basket", "--weights", "{oops")
    assert code == 2 and json.loads(err)["error"] == "InputError"
    code, _, err = run(capsys, "arena", "--arena", files["arena"], "--op", "basket", "--weights", "[1]")
    assert code == 2 and json.loads(err)["error"] == "InputError"
    code, _, err = run(capsys, "arena", "--arena", files["arena"], "--op", "basket")
    assert code == 2 and json.loads(err)["error"] == "UsageError"


def test_arena_typicality_seed_validation(capsys, files):
    code, _, err = run(capsys, "arena", "--arena", files["arena"], "--op", "typicality")
    assert code == 2 and json.loads(err)["error"] == "UsageError"
    code, _, err = run(
        capsys, "arena", "--arena", files["arena"], "--op", "typicality", "--firm", "a", "--market", "x"
    )
    assert code == 2 and json.loads(err)["error"] == "UsageError"
    code, _, err = run(capsys, "arena", "--arena", files["arena"], "--op", "typicality", "--firm", "a")
    assert code == 2 and json.loads(err)["error"] == "CapabilityError"


def test_arena_missing_op_argument(capsys, files):
    code, _, err = run(capsys, "arena", "--arena", files["arena"], "--op", "firm")
    assert code == 2 and json.loads(err)["error"] == "UsageError"


def test_argparse_usage_errors_exit_two(files):
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["lattice"])
    assert e.value.code == 2


def test_deterministic_output(capsys, files):
    first = run(capsys, "lattice", "--context", files["ctx"], "--out", "json")
    second = run(capsys, "lattice", "--context", files["ctx"], "--out", "json")
    assert first == second
