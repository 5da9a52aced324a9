"""Shared fixtures: the small named posets and relations used across the suite,
and fault injectors for the approximation operators and the reference tables."""

import pytest

from orderlab import approx, reference
from orderlab.auxrel import AuxRelation, bottom_aux, leq_aux, validate_aux
from orderlab.poset import antichain, chain, diamond


@pytest.fixture
def c3():
    return chain(3)


@pytest.fixture
def d4():
    return diamond()


@pytest.fixture
def a2():
    return antichain(2)


@pytest.fixture
def r1(c3):
    """Relation on the 3-chain: 0 below everything, 1 below 2, nothing else."""
    return validate_aux(c3, [(0, 0), (0, 1), (0, 2), (1, 2)])


@pytest.fixture
def r_bot(c3):
    return bottom_aux(c3)


@pytest.fixture
def leq3(c3):
    return leq_aux(c3)


@pytest.fixture
def break_operators(monkeypatch):
    """``break_operators(lap=f, uap=g)`` corrupts the operator tables of every
    relation tabulated from then on.  Up to ``approx.TABLE_MAX_N`` each
    operator answers f(r, A, value) or g(r, A, value) in place of its value
    at A.  Above it both read the byte-sliced hit tables, so f and then g
    rewrite their entries: entry e of slice k, the hit of the one-byte mask
    A = e << 8k, becomes f(r, A, entry), then g of that.  Single queries and
    lane gathers read the same rewritten entries."""

    def install(lap=None, uap=None):
        real_fill, real_hit = approx._fill_tables, approx._hit

        def fill(r):
            tables = list(real_fill(r))
            size = 1 << r.poset.n
            for k, err in enumerate((lap, uap)):
                if err is not None:
                    wrong = (err(r, b, v) for b, v in enumerate(tables[k][:size]))
                    tables[k] = bytes(wrong).ljust(256, b"\0")
            r._lap, r._uap = tables
            return r._lap, r._uap

        def hit(r):
            if r._hit is None:
                for k, entries in enumerate(real_hit(r).slices):
                    for e, v in enumerate(entries):
                        for err in filter(None, (lap, uap)):
                            v = err(r, e << 8 * k, v)
                        entries[e] = v
            return r._hit

        monkeypatch.setattr(approx, "_fill_tables", fill)
        monkeypatch.setattr(approx, "_hit", hit)

    return install


@pytest.fixture
def break_reference(monkeypatch):
    """``break_reference(table, entry, bit)`` flips ``bit`` in one entry of a
    reference table, for every poset from then on: ``"interiors"`` and
    ``"one-step"`` flip the entry at mask ``entry`` of ``scott_interiors`` or
    ``one_step_images``; ``"way-below"`` flips it in row ``entry`` of the
    sections of ``way_below``, a fresh relation on each call.  Each call
    replaces the previous fault."""
    names = {
        "interiors": "scott_interiors",
        "one-step": "one_step_images",
        "way-below": "way_below",
    }
    real = {table: getattr(reference, name) for table, name in names.items()}

    def install(table, entry, bit):
        for other, name in names.items():
            monkeypatch.setattr(reference, name, real[other])
        build = real[table]

        def broken(p):
            if table == "way-below":
                sec = list(build(p).sec)
                sec[entry] ^= bit
                return AuxRelation(p, sec)
            values = build(p)
            wrong = list(values)
            wrong[entry] ^= bit
            return bytes(wrong) if isinstance(values, bytes) else tuple(wrong)

        monkeypatch.setattr(reference, names[table], broken)

    return install
