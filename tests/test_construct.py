"""The dense cover construction and its witness verifier."""

import hashlib
import re
import subprocess
import sys
import tracemalloc
from collections.abc import Mapping
from decimal import ROUND_FLOOR, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodap
from prodap import construct, irregular
from prodap.apcore import APDescriptor
from prodap.construct import (
    cover_set,
    coverage_check,
    exceeds_ln,
    floor_mul_ln,
    floor_n_log_n,
    split_factor,
)
from prodap.errors import CapacityError, DomainError, FalsificationError, InputError
from prodap.exactnum import DEFAULT_TABLE, PrimeTable
from prodap.irregular import prime_window

from instances import primes_between


def decimal_floor_mul_ln(c: int, n: int, digits: int) -> int:
    """floor(c * ln n) from decimal, whose ln is correctly rounded."""
    with localcontext() as ctx:
        ctx.prec = digits
        return int((Decimal(c) * Decimal(n).ln()).to_integral_value(ROUND_FLOOR))


def split_factor_oracle(x, n, result, table=None):
    """The per-x splitter that certified the cover before the lpf sieve:
    trial-division factorization of x and one exceeds_ln call per x."""
    table = table or DEFAULT_TABLE
    if not 1 <= x <= result.M:
        raise InputError(f"x={x} outside [1, {result.M}]")
    if x == 1:
        return (1, 1, "unit")
    factors = table.factorize(x)
    p_big = factors[-1][0]
    if exceeds_ln(p_big, n) and x // p_big <= n:
        a, b = sorted((p_big, x // p_big))
        return (a, b, "large-prime")
    # transfer loop: start from the largest prime, migrate the smallest prime
    # factor of the big part across until both parts are in the set; x's
    # factorization less one p_big lists the big part's primes in order
    d1, d2 = p_big, x // p_big
    moves = iter([p for p, e in factors for _ in range(e)][:-1])
    while d1 not in result or d2 not in result:
        p = next(moves, None)
        if p is None:
            return None
        d1 *= p
        d2 //= p
    a, b = sorted((d1, d2))
    return (a, b, "transfer")


def corrupt_table(monkeypatch, changes):
    """Make coverage_check read a witness table whose entry for x is value,
    w[x - 1] = value, for each x: value in changes, set after the transfers
    have written theirs."""
    real = construct._witness_table

    def corrupted(result, table):
        w, smooth, failed = real(result, table)
        for x, value in changes.items():
            w[x - 1] = value
        return w, smooth, failed

    monkeypatch.setattr(construct, "_witness_table", corrupted)


class TestThresholds:
    def test_floor_nlogn_values(self):
        # floor(n ln n) pinned by certified interval refinement
        assert floor_n_log_n(3) == 3
        assert floor_n_log_n(10) == 23
        assert floor_n_log_n(50) == 195
        assert floor_n_log_n(100) == 460
        assert floor_n_log_n(500) == 3107
        assert floor_n_log_n(1000) == 6907
        assert floor_n_log_n(1) == 0

    def test_floor_nlogn_large(self):
        # each needs more than 53 bits of ln n to decide the floor
        assert floor_n_log_n(10**14) == 3223619130191663
        assert floor_n_log_n(2**200 + 1) == (
            222768914942526343909251230219509461266654458709818150147560549
        )
        assert floor_n_log_n(10**1000) == decimal_floor_mul_ln(10**1000, 10**1000, 1100)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2**400), st.integers(2, 2**400))
    def test_floor_mul_ln_matches_decimal(self, c, n):
        assert floor_mul_ln(c, n) == decimal_floor_mul_ln(c, n, 500)

    def test_floor_mul_ln_domain(self):
        assert floor_mul_ln(0, 7) == 0
        assert floor_mul_ln(5, 1) == 0
        with pytest.raises(DomainError):
            floor_mul_ln(-1, 7)
        with pytest.raises(DomainError):
            floor_mul_ln(1, 0)

    def test_exceeds_ln(self):
        # ln 10 = 2.302..., ln 3 = 1.098...
        assert not exceeds_ln(2, 10)
        assert exceeds_ln(3, 10)
        assert not exceeds_ln(1, 3)
        assert exceeds_ln(2, 3)
        assert exceeds_ln(1, 2)  # ln 2 < 1

    @pytest.mark.parametrize("k", [34, 37, 39, 45])
    def test_exceeds_ln_near_e_power(self, k):
        # round(e**k) lies so close to e**k that more than 53 bits of ln n
        # are needed to separate k from ln n
        with localcontext() as ctx:
            ctx.prec = 100
            n = int(Decimal(k).exp().to_integral_value())
            expected = Decimal(n).ln() < k
        assert exceeds_ln(k, n) is expected


class TestCoverSet:
    def test_n10(self):
        res = cover_set(10)
        assert res.M == 23
        assert res.elements == tuple(sorted(set(range(1, 11)) | {11, 13, 17, 19, 23}))
        assert res.size == 15

    def test_n3(self):
        res = cover_set(3)
        assert res.M == 3
        assert res.elements == (1, 2, 3)

    def test_n100_size(self):
        res = cover_set(100)
        # 63 primes in [100, 460], checked against two independent counts
        assert res.size == 163
        assert res.size <= 200

    def test_membership(self):
        res = cover_set(10)
        assert 7 in res and 23 in res
        assert 12 not in res and 24 not in res and 0 not in res

    def test_membership_matches_elements_with_own_table(self):
        res = cover_set(30, PrimeTable(capacity=200))
        assert res.M == 102
        for x in range(-2, res.M + 3):
            assert (x in res) == (x in res.elements)

    def test_rejects_small_n(self):
        with pytest.raises(InputError):
            cover_set(2)

    def test_capacity_propagates(self):
        with pytest.raises(CapacityError):
            cover_set(50, PrimeTable(capacity=60))

    def test_capacity_boundary_is_m(self):
        # M = 195 for n = 50: the table must be allowed to sieve to M
        with pytest.raises(CapacityError, match="sieve limit 195 exceeds capacity 194"):
            cover_set(50, PrimeTable(capacity=194))
        assert cover_set(50, PrimeTable(capacity=195)).M == 195

    @pytest.mark.parametrize("grown", [False, True])
    def test_primes_above_n_match_segmented_sieve(self, grown):
        # an independent sieve of (n, M] is the oracle, on a fresh table per
        # n and on one table grown past every M
        past_m = PrimeTable()
        past_m.primes_upto(50000)
        for n in (*range(4, 301), 1000, 3000):
            res = cover_set(n, past_m if grown else PrimeTable())
            assert list(res.elements[n:]) == primes_between(n + 1, res.M)

    def test_size_ratio(self):
        worst = 0.0
        for n in range(10, 400, 13):
            res = cover_set(n)
            assert res.size <= 2 * n
            worst = max(worst, res.size / n)
        assert worst <= 2.0


class TestSplitFactor:
    def test_examples(self):
        res = cover_set(10)
        assert split_factor(22, 10, res) == (2, 11, "large-prime")
        assert split_factor(16, 10, res) == (2, 8, "transfer")
        assert split_factor(1, 10, res) == (1, 1, "unit")

    def test_transfer_moves_smallest_prime_first(self):
        # 432 = 3 * 144 with 3 < ln 100: a 2 moves before a 3 does, giving
        # 6 * 72 rather than 9 * 48
        assert split_factor(432, 100, cover_set(100)) == (6, 72, "transfer")

    def test_prime_term(self):
        res = cover_set(10)
        assert split_factor(23, 10, res) == (1, 23, "large-prime")

    def test_out_of_range(self):
        res = cover_set(10)
        with pytest.raises(InputError):
            split_factor(24, 10, res)

    def test_out_of_range_past_digit_limit(self):
        # the 5001-digit x is named by its bit length
        with pytest.raises(InputError, match=r"^x=<16610-bit integer> outside \[1, 23\]$"):
            split_factor(10**5000, 10, cover_set(10))

    def test_products_land_in_set(self):
        res = cover_set(50)
        for x in range(1, res.M + 1):
            pair = split_factor(x, 50, res)
            assert pair is not None
            d1, d2, method = pair
            assert d1 * d2 == x and d1 <= d2
            assert method in {"unit", "large-prime", "transfer"}
            assert d1 in res and d2 in res


class TestCoverage:
    def test_n10_witnesses(self):
        res = coverage_check(10)
        assert set(res.witnesses) == set(range(1, 24))
        assert res.witnesses[21] == (3, 7)
        assert res.witnesses[23] == (1, 23)
        assert res.methods[1] == "unit"

    def test_n100_complete(self):
        res = coverage_check(100)
        assert len(res.witnesses) == 460
        assert all(d1 * d2 == x for x, (d1, d2) in res.witnesses.items())

    def test_small_n_needs_no_fallback(self):
        # the greedy splitter alone covers every x below n = 10, where an
        # exhaustive pair search once backed it up
        for n in range(3, 10):
            res = coverage_check(n)
            assert set(res.witnesses) == set(range(1, res.M + 1))
            assert set(res.methods.values()) <= {"unit", "large-prime", "transfer"}

    def test_methods_recorded_for_every_witness(self):
        res = coverage_check(30)
        assert set(res.methods) == set(res.witnesses)
        assert "transfer" in res.methods.values()
        assert "large-prime" in res.methods.values()

    @pytest.mark.parametrize(
        "witness, message",
        [
            (None, "no witness for 12"),
            ((1, 12, "transfer"), "invalid witness (1, 12)"),
            ((2, 9, "transfer"), "invalid witness (2, 9)"),
        ],
    )
    def test_witnesses_are_rechecked(self, monkeypatch, witness, message):
        # 12 = 3 * 4 meets the large-prime rule at n=10 (3 > ln 10); with
        # floor(ln n) held at 3 it takes the transfer path, which hands back
        # the witness under test.  12 is not in the n=10 cover set, so 1 * 12
        # must be rejected, and 2 * 9 is a pair of members whose product is
        # not 12
        real = construct._transfer
        monkeypatch.setattr(construct, "_floor_ln", lambda n: 3)
        monkeypatch.setattr(
            construct, "_transfer",
            lambda d1, d2, *args: witness if d1 * d2 == 12 else real(d1, d2, *args),
        )
        with pytest.raises(FalsificationError, match=re.escape(message)):
            coverage_check(10)

    def test_matches_per_x_oracle(self):
        for n in [*range(3, 301), 1000]:
            res = coverage_check(n)
            for x in range(1, res.M + 1):
                found = (*res.witnesses[x], res.methods[x])
                assert found == split_factor_oracle(x, n, res), (n, x)

    def test_digest_pins_witnesses(self):
        # sha256 of every witness and method for n = 3..599, computed with
        # the per-x splitter before the lpf sieve replaced it
        h = hashlib.sha256()
        for n in range(3, 600):
            res = coverage_check(n)
            w, m = res.witnesses, res.methods
            h.update("".join(
                f"{n},{x},{w[x][0]},{w[x][1]},{m[x]};" for x in range(1, res.M + 1)
            ).encode())
        assert h.hexdigest() == (
            "c0c816faf649badfb8ccb1ac8f2f9d332549e5e1d20e7e7eea99219bd88cf48f"
        )

    def test_lpf_is_largest_prime_factor(self):
        # above floor(ln n) the table's entry is x's largest prime; below it
        # the entry is the smaller factor of the transfer witness
        table = PrimeTable()
        res = cover_set(1000, table)
        w, smooth, failed = construct._witness_table(res, table)
        assert len(w) == res.M and w[0] == 1 and failed == {}
        floor_ln = decimal_floor_mul_ln(1, 1000, 50)
        for x in range(2, res.M + 1):
            p = table.factorize(x)[-1][0]
            if p > floor_ln:
                assert w[x - 1] == p and x not in smooth
            else:
                assert x in smooth
                assert (w[x - 1], x // w[x - 1]) == split_factor_oracle(x, 1000, res, table)[:2]

    @pytest.mark.parametrize("n", [*range(3, 61), 1000])
    def test_transfer_x_are_the_smooth_x(self, n):
        # the unit and transfer x are 1 and the floor(ln n)-smooth x
        table = PrimeTable()
        res = cover_set(n, table)
        _, smooth, _ = construct._witness_table(res, table)
        floor_ln = decimal_floor_mul_ln(1, n, 50)
        assert smooth == {1} | {
            x for x in range(2, res.M + 1) if table.factorize(x)[-1][0] <= floor_ln
        }

    def test_table_grows_to_m_once(self):
        # a fresh table, as a CLI run has, is sieved to M and not past it; a
        # later call with a smaller M sieves nothing
        table = PrimeTable()
        res = coverage_check(3000, table)
        assert table.limit == res.M == 24019
        cover_set(2000, table)
        assert table.limit == 24019

    def test_grown_table_gives_the_fresh_certificate(self):
        grown = PrimeTable()
        coverage_check(5000, grown)
        res, fresh = coverage_check(500, grown), coverage_check(500, PrimeTable())
        assert res.elements == fresh.elements
        assert list(res.witnesses.items()) == list(fresh.witnesses.items())
        assert list(res.methods.items()) == list(fresh.methods.items())


class TestColumnCache:
    """Each call's witness table is a private copy of the prime table's
    largest-prime-factor column: no call sees another's writes."""

    @staticmethod
    def certificate(res):
        return list(res.witnesses.items()), list(res.methods.items())

    def test_corrupted_call_leaves_the_cache_clean(self, monkeypatch):
        # a corrupted entry and a failed transfer, which writes M + 1
        table = PrimeTable()
        real = construct._transfer
        with monkeypatch.context() as m:
            corrupt_table(m, {458: 227})
            m.setattr(
                construct, "_transfer",
                lambda d1, d2, *args: None if d1 * d2 == 432 else real(d1, d2, *args),
            )
            with pytest.raises(FalsificationError, match=re.escape("no witness for 432")):
                coverage_check(100, table)
        fresh = self.certificate(coverage_check(100, PrimeTable()))
        assert self.certificate(coverage_check(100, table)) == fresh

    def test_earlier_view_survives_a_larger_call(self):
        table = PrimeTable()
        res = coverage_check(500, table)
        coverage_check(5000, table)
        assert self.certificate(res) == self.certificate(coverage_check(500, PrimeTable()))

    def test_mutated_certificate_leaves_the_cache(self):
        table = PrimeTable()
        res = coverage_check(500, table)
        res.witnesses._w[:] = [res.M + 1] * res.M
        fresh = self.certificate(coverage_check(500, PrimeTable()))
        assert self.certificate(coverage_check(500, table)) == fresh

    def test_column_grows_only_to_m(self, monkeypatch):
        # the prime window sieves the table to 2 * 10**6; the cover of n = 500
        # still builds its column only to M = 3107
        table = PrimeTable()
        monkeypatch.setattr(irregular, "DEFAULT_TABLE", table)
        prime_window(APDescriptor(1, 1, 1, 4 * 10**6 + 1))
        assert table.limit == 2 * 10**6
        res = coverage_check(500, table)
        assert len(table._lpf) == res.M + 1 == 3108
        assert self.certificate(res) == self.certificate(coverage_check(500, PrimeTable()))


class TestCertificate:
    """The witness table is the certificate; witnesses and methods are views."""

    @pytest.mark.parametrize("n", [*range(3, 61), 1000])
    def test_views_are_mappings(self, n):
        res = coverage_check(n)
        for view in (res.witnesses, res.methods):
            assert isinstance(view, Mapping)
            assert len(view) == res.M
            assert list(view) == list(range(1, res.M + 1))
            for key in (0, res.M + 1, "3"):
                assert key not in view
                with pytest.raises(KeyError):
                    view[key]

    @pytest.mark.parametrize("n", [*range(3, 61), 1000])
    def test_views_equal_oracle_dicts(self, n):
        res = coverage_check(n)
        oracle = {x: split_factor_oracle(x, n, res) for x in range(1, res.M + 1)}
        witnesses = {x: (d1, d2) for x, (d1, d2, _) in oracle.items()}
        methods = {x: method for x, (_, _, method) in oracle.items()}
        assert res.witnesses == witnesses and witnesses == res.witnesses
        assert res.methods == methods and methods == res.methods
        assert list(res.methods.values()) == list(methods.values())

    def test_repr_names_the_certificate(self):
        res = coverage_check(10)
        transfers = sum(m != "large-prime" for m in res.methods.values())
        assert repr(res.witnesses) == f"_WitnessView(M=23, transfers={transfers})"
        assert repr(res.methods) == f"_MethodView(M=23, transfers={transfers})"
        assert repr(res) == repr(coverage_check(10))

    def test_cover_set_has_empty_views(self):
        res = cover_set(10)
        assert len(res.witnesses) == 0 and len(res.methods) == 0

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({458: 227}, "invalid witness (2, 227) for 458"),  # 227 does not divide 458
            ({458: 458}, "invalid witness (1, 458) for 458"),  # 458 is not a member
            ({432: 5}, "invalid witness (5, 86) for 432"),  # a transfer x's entry
            # the least bad x is reported, whichever pass finds it
            ({7: 2, 458: 227}, "invalid witness (2, 3) for 7"),
            ({458: 227, 460: 3}, "invalid witness (2, 227) for 458"),
        ],
    )
    def test_corrupted_lpf_entry_is_caught(self, monkeypatch, changes, message):
        corrupt_table(monkeypatch, changes)
        with pytest.raises(FalsificationError, match=re.escape(message)):
            coverage_check(100)

    @pytest.mark.parametrize(
        "changes, message",
        [({458: 227}, "no witness for 432"), ({7: 2}, "invalid witness (2, 3) for 7")],
    )
    def test_least_bad_x_across_kinds(self, monkeypatch, changes, message):
        # the transfer for 432 fails and a large-prime entry is corrupted:
        # whichever x is smaller is reported
        real = construct._transfer
        monkeypatch.setattr(
            construct, "_transfer",
            lambda d1, d2, *args: None if d1 * d2 == 432 else real(d1, d2, *args),
        )
        corrupt_table(monkeypatch, changes)
        with pytest.raises(FalsificationError, match=re.escape(message)):
            coverage_check(100)

    def test_cofactor_outside_set_is_caught(self, monkeypatch):
        # with floor(ln n) held at 1, x = 256 = 2 * 128 counts as large-prime,
        # and 128 is not in the n=100 cover set: the cofactor pass rejects it
        monkeypatch.setattr(construct, "_floor_ln", lambda n: 1)
        with pytest.raises(FalsificationError, match=re.escape("invalid witness (2, 128) for 256")):
            coverage_check(100)

    def test_retained_memory_per_x(self):
        # the certificate keeps the witness table and no per-x object: a dict of
        # witness tuples and one of method names kept about 220 bytes per x
        coverage_check(20000)  # grow the shared prime table beforehand
        tracemalloc.start()
        try:
            res = coverage_check(20000)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 64 * res.M


def test_import_leaves_mpmath_out():
    src = Path(prodap.__file__).resolve().parents[1]
    code = "import sys, prodap; sys.exit('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, timeout=60)
    assert proc.returncode == 0
