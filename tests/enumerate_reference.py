"""Reference enumeration: every candidate tuple, filtered by `validate`.

`groups.enumerate_specs` steps each parameter only over its allowed
values.  The loop here proposes every positive tuple below the order
bound instead, with s over 1..r, and keeps the ones `validate` accepts,
so the tests can check that the stepped loops skip no valid spec and
keep the catalog order.

`enumerate_text` lays rows out as `orbiseif enumerate` prints them, with
the f-strings the command used before it wrote each row with one %
format.
"""

from orbiseif.groups import (
    EnumeratedSpec,
    FAMILY_ORDER,
    FamilySpec,
    get_family,
    validate,
)


def _candidates(fam, max_order: int):
    """All tuples of positive parameters, with s in 1..r, whose rotation
    order is <= max_order, in lexicographic order."""
    def order_of(**kw):
        return fam.phi_order(FamilySpec(fam.name, **kw))

    if not fam.params:
        if order_of() <= max_order:
            yield FamilySpec(fam.name)
        return
    if fam.params == ("m",):
        m = 1
        while order_of(m=m) <= max_order:
            yield FamilySpec(fam.name, m=m)
            m += 1
        return
    if fam.params == ("m", "n"):
        m = 1
        while order_of(m=m, n=1) <= max_order:
            n = 1
            while order_of(m=m, n=n) <= max_order:
                yield FamilySpec(fam.name, m=m, n=n)
                n += 1
            m += 1
        return
    m = 1
    while order_of(m=m, n=1, r=1, s=1) <= max_order:
        n = 1
        while order_of(m=m, n=n, r=1, s=1) <= max_order:
            r = 1
            while order_of(m=m, n=n, r=r, s=1) <= max_order:
                for s in range(1, r + 1):
                    yield FamilySpec(fam.name, m=m, n=n, r=r, s=s)
                r += 1
            n += 1
        m += 1


def reference_enumerate(max_order: int, families=None) -> list:
    """The rows `enumerate_specs(max_order, families)` must return."""
    rows = []
    for name in FAMILY_ORDER if families is None else families:
        fam = get_family(name)
        for spec in _candidates(fam, max_order):
            if not validate(spec)[0]:
                rows.append(EnumeratedSpec(spec, fam.phi_order(spec),
                                           fam.fibered))
    return rows


def enumerate_text(rows) -> str:
    """The text output of `orbiseif enumerate` for `rows`."""
    lines = [f"{'family':>8} {'parameters':<28} {'|Phi(G)|':>9}  fibered"]
    for row in rows:
        params = ",".join(f"{k}={v}" for k, v in row.spec.params().items())
        lines.append(f"{row.spec.family:>8} {params:<28} {row.phi_order:>9}  "
                     f"{'yes' if row.fibered else 'no'}")
    lines.append(f"total: {len(rows)} groups")
    return "\n".join(lines) + "\n"
