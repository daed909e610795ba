"""The contract of the immutable records: repr, equality, hash, defaults,
validation and immutability, pinned at the values the frozen dataclasses they
replace gave."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mqtorsion import qfield
from mqtorsion.classify import ExceptionalCurve, RankTable, Verdict, classify, default_ranks
from mqtorsion.ff import FieldDesc, make_field
from mqtorsion.groups import AbGroupStructure, GroupError
from mqtorsion.mwtors import CrossCheckError, CurveModel, TorsionResult, get_model

G28 = AbGroupStructure((2, 8))
MODEL = CurveModel("19a2", (1, 19), 1, None, (0, 1, 1, -769, -8470), None, "test")
FULL_MODEL = CurveModel("t", (1, 1), 2, None, None, (1, 2, 3), "s", {"a": 1}, (3, 5), {None: (2,)})
RESULT = TorsionResult("X", (1, -3), AbGroupStructure((2,)), AbGroupStructure((2, 4)), False, ({"k": 1},))
RANKS = RankTable.from_records([{"jacobian": "X1(14)", "twist": -7, "rank": 0, "source": "s"}])
ORIGIN = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
CURVE = ExceptionalCurve(14, -7, "14-I", ((Fraction(2), Fraction(3, 7)), (Fraction(0), Fraction(0))), ORIGIN)
VERDICT = Verdict("15", (1,), None, "none", 0, "iff")
SRC = str(Path(__file__).resolve().parent.parent / "src")

# one instance of each record class, with a copy built from the same fields
RECORDS = {
    "AbGroupStructure": (G28, lambda: AbGroupStructure((2, 8))),
    "FieldDesc": (make_field(7, 2), lambda: FieldDesc(7, 2, -1)),
    "CurveModel": (MODEL, lambda: CurveModel("19a2", (1, 19), 1, None, (0, 1, 1, -769, -8470), None, "test")),
    "TorsionResult": (TorsionResult("X", (1,), G28, G28, True),
                      lambda: TorsionResult("X", (1,), G28, G28, True)),
    "RankTable": (RANKS, lambda: RankTable(((("X1(14)", -7), (0, "s")),))),
    "ExceptionalCurve": (CURVE, lambda: ExceptionalCurve(
        14, -7, "14-I", ((Fraction(2), Fraction(3, 7)), (Fraction(0), Fraction(0))), ORIGIN)),
    "Verdict": (VERDICT, lambda: Verdict(target="15", field_signature=(1,), rank_value=None,
                                         existence="none", count=0, equivalence_direction="iff")),
}


class TestRepr:
    @pytest.mark.parametrize("record, expected", [
        (G28, "AbGroupStructure(factors=(2, 8))"),
        (AbGroupStructure(()), "AbGroupStructure(factors=())"),
        (make_field(7, 2), "F_7^2(t^2=-1)"),
        (FieldDesc(5, 1), "F_5"),
        (MODEL, "CurveModel(label='19a2', level=(1, 19), genus=1, base_d=None, "
                "ainvs=(0, 1, 1, -769, -8470), f_coeffs=None, source='test', checks={}, "
                "primes=None, torsion_table={})"),
        (FULL_MODEL, "CurveModel(label='t', level=(1, 1), genus=2, base_d=None, ainvs=None, "
                     "f_coeffs=(1, 2, 3), source='s', checks={'a': 1}, primes=(3, 5), "
                     "torsion_table={None: (2,)})"),
        (RESULT, "TorsionResult(label='X', field_signature=(1, -3), "
                 "lower=AbGroupStructure(factors=(2,)), upper=AbGroupStructure(factors=(2, 4)), "
                 "closed=False, trace=({'k': 1},))"),
        (RANKS, "RankTable(entries=((('X1(14)', -7), (0, 's')),))"),
        (CURVE, "ExceptionalCurve(target=14, base_d=-7, name='14-I', ainvs=((Fraction(2, 1), "
                "Fraction(3, 7)), (Fraction(0, 1), Fraction(0, 1))), point=((Fraction(0, 1), "
                "Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1))))"),
        (VERDICT, "Verdict(target='15', field_signature=(1,), rank_value=None, existence='none', "
                  "count=0, equivalence_direction='iff', exceptional=(), condition=None, "
                  "annotations=())"),
    ])
    def test_repr_is_the_dataclass_repr(self, record, expected):
        assert repr(record) == expected

    def test_classify_verdict_repr(self):
        verdict = classify("14", qfield.parse_field("-7"), default_ranks())
        assert repr(verdict).startswith(
            "Verdict(target='14', field_signature=(1, -7), rank_value=0, existence='exactly', "
            "count=2, equivalence_direction='iff', exceptional=(ExceptionalCurve(target=14, "
            "base_d=-7, name='14-I', ainvs=((2, Fraction(3, 7)), ")
        assert repr(verdict).endswith(
            "condition=None, annotations=('with rank 0, every curve over K with Z/14 torsion is "
            "defined over the listed quadratic field(s)',))")


class TestEqualityAndHash:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_equal_fields_equal_records(self, name):
        record, copy = RECORDS[name]
        other = copy()
        assert other is not record and other == record and not other != record
        assert hash(other) == hash(record)
        assert len({record, other}) == 1

    def test_a_dict_field_is_unhashable(self):
        other = TorsionResult(
            "X", (1, -3), AbGroupStructure((2,)), AbGroupStructure((2, 4)), False, ({"k": 1},))
        assert other == RESULT
        with pytest.raises(TypeError):
            hash(RESULT)

    def test_a_dict_field_raises_on_every_hash(self):
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(RESULT)
        assert "_hash" not in vars(RESULT)

    def test_hash_is_computed_once(self, monkeypatch):
        record = CurveModel("19a2", (1, 19), 1, None, (0, 1, 1, -769, -8470), None, "test")
        first = hash(record)
        monkeypatch.setattr(CurveModel, "_key", staticmethod(lambda values: pytest.fail("hashed again")))
        assert hash(record) == first and {record: 1}[record] == 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
    def test_copy_and_pickle_leave_the_hash_behind(self, clone):
        for name, (record, _) in RECORDS.items():
            hash(record)
            other = clone(record)
            assert "_hash" not in vars(other), name
            assert other == record and hash(other) == hash(record), name

    def test_a_record_pickled_in_another_process_hashes_here(self):
        # string hashes are salted per process, so a hash carried over in
        # the pickle would not be the hash of the same fields here
        code = (
            "import pickle, sys; from mqtorsion.mwtors import get_model; m = get_model('X1(18)'); "
            "hash(m); sys.stdout.buffer.write(pickle.dumps(m))"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        data = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
        there, here = pickle.loads(data), get_model("X1(18)")
        assert hash(there) == hash(here) and {here: 1}[there] == 1

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(G28) == hash(((2, 8),))
        assert hash(make_field(7, 2)) == hash((7, 2, -1))
        assert hash(RANKS) == hash((RANKS.entries,))

    def test_different_fields_differ(self):
        assert G28 != AbGroupStructure((2, 4))
        assert make_field(7, 1) != make_field(7, 2)
        assert VERDICT != Verdict("15", (1,), None, "none", 0, "iff", condition="x")

    def test_no_equality_with_a_tuple(self):
        assert AbGroupStructure((2,)) != (2,)
        assert (2,) != AbGroupStructure((2,))
        assert FieldDesc(5, 1) != (5, 1, None)

    def test_no_equality_across_record_classes(self):
        class Twin(AbGroupStructure):
            pass

        assert Twin((2, 8)) != G28 and G28 != Twin((2, 8))
        records = [record for record, _ in RECORDS.values()]
        for a in records:
            for b in records:
                assert (a == b) == (a is b)

    def test_curve_model_ignores_checks_and_table(self):
        plain = CurveModel("t", (1, 1), 2, None, None, (1, 2, 3), "s", primes=(3, 5))
        assert plain == FULL_MODEL and hash(plain) == hash(FULL_MODEL)
        assert plain != CurveModel("t", (1, 1), 2, None, None, (1, 2, 3), "s", primes=(3, 7))


class TestDefaults:
    def test_defaults(self):
        assert FieldDesc(5, 1).r is None
        assert MODEL.checks == {} and MODEL.primes is None and MODEL.torsion_table == {}
        assert RESULT.trace == ({"k": 1},) and TorsionResult("X", (1,), G28, G28, True).trace == ()
        assert (VERDICT.exceptional, VERDICT.condition, VERDICT.annotations) == ((), None, ())

    def test_dict_defaults_are_not_shared(self):
        a = CurveModel("a", (1, 1), 1, None, None, None, "s")
        b = CurveModel("b", (1, 1), 1, None, None, None, "s")
        assert a.checks is not b.checks and a.torsion_table is not b.torsion_table

    @pytest.mark.parametrize("build", [
        lambda: FieldDesc(5),
        lambda: FieldDesc(5, 1, None, 0),
        lambda: FieldDesc(5, 1, q=3),
        lambda: FieldDesc(5, p=5),
    ])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()


class TestImmutable:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_assignment_and_deletion_raise(self, name):
        record, _ = RECORDS[name]
        field = type(record)._fields[0]
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == before

    def test_cached_property_fills_the_instance_dict(self):
        g = AbGroupStructure((6, 12))
        assert g.prime_exponents() == {2: [1, 2], 3: [1, 1]}
        assert "_prime_exponents" in vars(g)
        g.prime_exponents()[2].append(9)
        assert g.prime_exponents() == {2: [1, 2], 3: [1, 1]}


class TestValidation:
    def test_bad_chain_raises_group_error(self):
        with pytest.raises(GroupError):
            AbGroupStructure((4, 6))
        with pytest.raises(GroupError):
            AbGroupStructure((1,))

    def test_lower_outside_upper_raises_cross_check_error(self):
        with pytest.raises(CrossCheckError):
            TorsionResult("X", (1,), AbGroupStructure((4,)), AbGroupStructure((2, 2)), False)
