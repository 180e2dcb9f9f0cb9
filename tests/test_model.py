"""Data model: validation, constants, space-file round trips."""

import copy
import dataclasses
import json
import math
import pickle
from fractions import Fraction

import pytest

from su2dh.model import (
    VOL_G,
    VOL_T,
    AlcoveRangeError,
    FixedComponent,
    QHSpace,
    SpaceFormatError,
    load_space,
    require_interior_alcove,
    save_space,
)
from su2dh.fourier import SummationMethod, fourier_coefficient, reconstruct_density
from su2dh.residue import (
    CentralElement,
    EvalOptions,
    WallPolicy,
    central_density,
    density,
    scan,
)
from su2dh.spaces import make_product_space, make_s4
from conftest import make_random_space

FIELDS = {"label", "mu", "euler_integral"}


def run_every_entry_point(space: QHSpace) -> None:
    """Warm a space through every residue and Fourier entry point."""
    density(space, 0.37)
    scan(space, [0.1, 0.5, 0.9], EvalOptions(wall_policy=WallPolicy.LEFT_LIMIT))
    for which in CentralElement:
        central_density(space, which)
    reconstruct_density(space, 0.37, SummationMethod(terms=100))
    for n in range(3):
        fourier_coefficient(space, n)


class TestNormalization:
    def test_constants(self):
        assert VOL_T == math.sqrt(2.0)
        assert VOL_T == pytest.approx(2.0**0.5, rel=1e-15)
        assert VOL_G == pytest.approx(2.0**0.5 / (2.0 * 3.141592653589793), rel=1e-15)

    def test_alcove_guard(self):
        assert require_interior_alcove(0.5) == 0.5
        for bad in (0.0, 1.0, -0.1, 1.1, float("nan")):
            with pytest.raises(AlcoveRangeError, match="t out of open alcove"):
                require_interior_alcove(bad)


class TestFixedComponent:
    def test_centrality_is_exact(self):
        assert FixedComponent("a", Fraction(0), {2: 1.0}).central
        assert FixedComponent("a", Fraction(1), {2: 1.0}).central
        assert not FixedComponent("a", Fraction(1, 2), {2: 1.0}).central
        # a value indistinguishable from 1 in floating point is not central
        assert not FixedComponent("a", Fraction(10**15 - 1, 10**15), {2: 1.0}).central

    def test_mu_range_enforced(self):
        with pytest.raises(SpaceFormatError, match="mu out of alcove range"):
            FixedComponent("a", Fraction(3, 2), {2: 1.0})

    @pytest.mark.parametrize("bad", ["x", "1/0", float("inf"), None])
    def test_unparseable_mu_rejected(self, bad):
        with pytest.raises(SpaceFormatError, match="component 'a': cannot parse mu"):
            FixedComponent("a", bad, {2: 1.0})

    def test_power_floor_enforced(self):
        with pytest.raises(SpaceFormatError, match="order >= 2"):
            FixedComponent("a", Fraction(0), {1: 1.0})

    def test_nonempty_coefficients(self):
        with pytest.raises(SpaceFormatError, match="nonempty"):
            FixedComponent("a", Fraction(0), {})

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), complex(0.0, float("-inf"))]
    )
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(SpaceFormatError, match="power 4 must be finite"):
            FixedComponent("a", Fraction(1, 2), {2: 1.0, 4: bad})

    def test_copies_are_rebuilt_from_the_value(self, rng):
        # compiled data stay with the space they were computed from; a component
        # is a plain value
        space = make_random_space(rng, n_components=3)
        run_every_entry_point(space)
        for copied in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space)):
            assert copied == space and repr(copied) == repr(space)
            assert copied._compiled == {}
            assert all(vars(c).keys() == FIELDS for c in copied.components)
            with pytest.raises(TypeError):
                copied.components[0].euler_integral[2] = 1.0
            assert density(copied, 0.37) == density(space, 0.37)
        for comp in space.components:
            for copied in (
                pickle.loads(pickle.dumps(comp)),
                copy.deepcopy(comp),
                copy.copy(comp),
                dataclasses.replace(comp),
            ):
                assert copied == comp and repr(copied) == repr(comp)
                assert vars(copied).keys() == FIELDS
                assert type(copied.euler_integral) is type(comp.euler_integral)
                with pytest.raises(TypeError):
                    copied.euler_integral[2] = 1.0

    def test_asdict_reads_the_value(self):
        # asdict deep-copies a field value that is not a dict, list, tuple or dataclass,
        # and a mappingproxy cannot be copied
        space = make_product_space(3)
        density(space, 0.37)
        reconstruct_density(space, 0.37, SummationMethod(terms=100))
        record = dataclasses.asdict(space)
        assert (record["name"], record["stabilizer_order"]) == (space.name, space.stabilizer_order)
        for comp, entry in zip(space.components, record["components"]):
            assert dataclasses.asdict(comp)["euler_integral"] == entry["euler_integral"]
            assert entry["euler_integral"] == dict(comp.euler_integral)
            assert (entry["label"], entry["mu"]) == (comp.label, comp.mu)
        assert repr(space.components[0]).endswith(
            f"euler_integral={dict(space.components[0].euler_integral)!r})"
        )

    def test_compiled_data_are_not_fields(self):
        # a warm and a cold equal object give the same records, and only the
        # space holds compiled data
        warm, cold = make_product_space(3), make_product_space(3)
        run_every_entry_point(warm)
        assert sorted(map(str, warm._compiled)) == [
            "('fourier', 100)", "above", "below", "fold", "interior"
        ]
        assert all(vars(c).keys() == FIELDS for c in warm.components)
        assert dataclasses.asdict(warm) == dataclasses.asdict(cold)
        assert dataclasses.astuple(warm) == dataclasses.astuple(cold)
        assert [f.name for f in dataclasses.fields(warm)] == [
            "name", "components", "stabilizer_order"
        ]
        assert [f.name for f in dataclasses.fields(warm.components[0])] == [
            "label", "mu", "euler_integral"
        ]


class TestSpaceValidation:
    def test_duplicate_labels_rejected(self):
        c = FixedComponent("a", Fraction(0), {2: 1.0})
        with pytest.raises(SpaceFormatError, match="unique"):
            QHSpace("x", (c, c), 1)

    def test_empty_components_rejected(self):
        with pytest.raises(SpaceFormatError, match="at least one"):
            QHSpace("x", (), 1)

    def test_duplicate_label_is_named(self):
        a = FixedComponent("a", Fraction(0), {2: 1.0})
        b = FixedComponent("b", Fraction(1, 2), {2: 1.0})
        with pytest.raises(SpaceFormatError, match="'b' repeats"):
            QHSpace("x", (b, a, b), 1)

    def test_stabilizer_order_floor(self):
        c = FixedComponent("a", Fraction(0), {2: 1.0})
        with pytest.raises(SpaceFormatError, match="stabilizer_order"):
            QHSpace("x", (c,), 0)


class TestSpaceFiles:
    def test_round_trip_s4(self):
        space = make_s4()
        assert load_space(save_space(space)) == space

    def test_round_trip_random(self, rng):
        for _ in range(20):
            space = make_random_space(rng)
            assert load_space(save_space(space)) == space

    def test_save_is_deterministic(self):
        space = make_s4()
        assert save_space(space) == save_space(space)

    def test_save_is_canonical(self):
        # same space, different construction order -> identical bytes
        a = FixedComponent("a", Fraction(1, 4), {2: 1.0, 4: 2.0})
        b = FixedComponent("b", Fraction(1, 2), {3: 1.0j})
        assert save_space(QHSpace("x", (a, b), 2)) == save_space(QHSpace("x", (b, a), 2))

    def test_s4_document_has_two_components(self):
        doc = json.loads(save_space(make_s4()))
        assert len(doc["components"]) == 2

    def test_product_document_stabilizer(self):
        doc = json.loads(save_space(make_product_space(1)))
        assert doc["stabilizer_order"] == 2

    def test_mu_serialized_exactly(self):
        space = QHSpace(
            "x",
            (
                FixedComponent("a", Fraction("0.35"), {2: 1.0}),
                FixedComponent("b", Fraction(1, 3), {2: 1.0}),
            ),
            1,
        )
        doc = json.loads(save_space(space))
        assert doc["components"][0]["mu"] == "0.35"
        assert doc["components"][1]["mu"] == "1/3"
        assert load_space(save_space(space)) == space

    def test_power_one_rejected(self):
        doc = {
            "name": "x",
            "stabilizer_order": 1,
            "components": [
                {
                    "label": "a",
                    "mu": "0",
                    "coefficients": [{"power": 1, "re": 1.0, "im": 0.0}],
                }
            ],
        }
        with pytest.raises(SpaceFormatError, match=r"components\[0\].coefficients\[0\].power"):
            load_space(doc)

    def test_mu_out_of_range_rejected(self):
        doc = {
            "name": "x",
            "stabilizer_order": 1,
            "components": [
                {"label": "a", "mu": "1.5", "coefficients": [{"power": 2, "re": 1.0, "im": 0.0}]}
            ],
        }
        with pytest.raises(SpaceFormatError, match="mu out of alcove range"):
            load_space(doc)

    def test_mu_must_be_string(self):
        doc = {
            "name": "x",
            "stabilizer_order": 1,
            "components": [
                {"label": "a", "mu": 0.5, "coefficients": [{"power": 2, "re": 1.0, "im": 0.0}]}
            ],
        }
        with pytest.raises(SpaceFormatError, match=r"components\[0\].mu"):
            load_space(doc)

    def test_unknown_field_rejected(self):
        doc = json.loads(save_space(make_s4()))
        doc["extra"] = 1
        with pytest.raises(SpaceFormatError, match="unknown field"):
            load_space(doc)

    def test_document_messages_name_the_document(self):
        doc = json.loads(save_space(make_s4()))
        with pytest.raises(SpaceFormatError, match="document: must be an object"):
            load_space("[]")
        with pytest.raises(SpaceFormatError, match=r"document\.extra: unknown field"):
            load_space({**doc, "extra": 1})
        with pytest.raises(SpaceFormatError, match=r"document\.1: unknown field"):
            load_space({**doc, 1: 0, "z": 0})  # mixed key types, as a mapping may have
        del doc["stabilizer_order"], doc["name"]
        with pytest.raises(SpaceFormatError, match="document: missing field 'name'"):
            load_space(doc)

    def test_missing_field_named(self):
        doc = json.loads(save_space(make_s4()))
        del doc["components"][0]["mu"]
        with pytest.raises(SpaceFormatError, match=r"components\[0\]"):
            load_space(doc)

    @pytest.mark.parametrize("field", ["re", "im"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coefficient_rejected(self, field, bad):
        doc = json.loads(save_space(make_s4()))
        doc["components"][1]["coefficients"][0][field] = bad
        text = json.dumps(doc)  # json writes NaN / Infinity, and json.loads accepts them
        with pytest.raises(
            SpaceFormatError, match=rf"components\[1\]\.coefficients\[0\]\.{field}: must be finite"
        ):
            load_space(text)

    def test_invalid_json_rejected(self):
        with pytest.raises(SpaceFormatError, match="not valid JSON"):
            load_space("{not json")

    @pytest.mark.parametrize("kind", [str, bytes])
    def test_deeply_nested_json_is_refused(self, kind):
        # the decoder's recursion limit, not a RecursionError
        text = "[" * 200_000 + "]" * 200_000
        document = text if kind is str else text.encode("utf-8")
        with pytest.raises(SpaceFormatError) as info:
            load_space(document)
        assert str(info.value).startswith("malformed space file: not valid JSON: ")
        assert "recursion" in str(info.value)

    def test_undecodable_bytes_are_refused(self):
        with pytest.raises(SpaceFormatError) as info:
            load_space(b"\xff{}")
        assert str(info.value) == (
            "malformed space file: not valid JSON: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte"
        )

    @pytest.mark.parametrize(
        "encoding, reason",
        [
            ("utf-16", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ("utf-32", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
            ("utf-8-sig", "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 "
                          "(char 0)"),
        ],
        ids=["utf-16", "utf-32", "utf-8-sig"],
    )
    def test_bytes_are_read_as_utf8_only(self, encoding, reason):
        # json.loads would guess each of these encodings; a space file is UTF-8
        text = save_space(make_s4())
        assert load_space(text.encode("utf-8")) == make_s4()
        with pytest.raises(SpaceFormatError) as info:
            load_space(text.encode(encoding))
        assert str(info.value) == f"malformed space file: not valid JSON: {reason}"

    @pytest.mark.parametrize("kind", [str, bytes])
    def test_integer_beyond_the_digit_limit_is_refused(self, kind):
        # json.loads raises a plain ValueError, not a JSONDecodeError, here
        text = save_space(make_s4())
        text = text.replace('"stabilizer_order": 1', '"stabilizer_order": ' + "7" * 5001)
        with pytest.raises(SpaceFormatError) as info:
            load_space(text if kind is str else text.encode("utf-8"))
        assert str(info.value).startswith(
            "malformed space file: not valid JSON: Exceeds the limit (4300 digits) for integer "
            "string conversion"
        )

    # each value rule is judged by FixedComponent or QHSpace; the loader only
    # names the component, or the document, that broke it (or the path of a
    # shape error)
    @pytest.mark.parametrize(
        "component, field, value, where, rule",
        [
            (None, "name", "", "document", "space name must be a nonempty string"),
            (None, "name", 7, "document", "space name must be a nonempty string"),
            (None, "stabilizer_order", 0, "document", "stabilizer_order must be an integer"),
            (None, "stabilizer_order", True, "document", "stabilizer_order must be an integer"),
            (None, "components", [], "document", "at least one component"),
            (1, "label", "", "components[1]", "component label must be a nonempty string"),
            (1, "label", ["e"], "components[1]", "component label must be a nonempty string"),
            (1, "label", "-e", "document", "component labels must be unique; '-e' repeats"),
            (1, "mu", "x", "components[1]", "cannot parse mu"),
            (1, "mu", "1/0", "components[1]", "cannot parse mu"),
            (1, "mu", "3/2", "components[1]", "mu out of alcove range"),
            (0, "coefficients", [], "components[0]", "coefficients must be nonempty"),
            (None, "components", {}, "components", "must be an array"),
            (0, "coefficients", {}, "components[0].coefficients", "must be an array"),
        ],
    )
    def test_value_rules_name_their_place(self, component, field, value, where, rule):
        doc = json.loads(save_space(make_s4()))
        (doc if component is None else doc["components"][component])[field] = value
        with pytest.raises(SpaceFormatError) as info:
            load_space(json.dumps(doc))
        message = str(info.value)
        assert message.startswith(f"malformed space file: {where}: "), message
        assert rule in message, message

    def test_duplicate_power_rejected(self):
        doc = {
            "name": "x",
            "stabilizer_order": 1,
            "components": [
                {
                    "label": "a",
                    "mu": "0",
                    "coefficients": [
                        {"power": 2, "re": 1.0, "im": 0.0},
                        {"power": 2, "re": 2.0, "im": 0.0},
                    ],
                }
            ],
        }
        with pytest.raises(SpaceFormatError, match="duplicate power"):
            load_space(doc)

