"""Slow-path references for the genus-2 census: J(F_q) listed in full and
checked against the zeta function.

Production never lists J(F_q): `mwtors.Census` takes the group order from
the zeta function over F_p and spans each Sylow subgroup from the front of
`hyperjac.ClassStream`.  The tests check that shortcut against this list.
"""

from mqtorsion.hyperjac import JacError, _pair_classes, zeta_order


class ZetaMismatch(JacError):
    """Enumerated class count disagrees with the zeta oracle."""


def all_classes(C) -> list:
    """Every reduced divisor class of C over F_q, sorted: the whole pair
    stream, with no class listed twice and as many classes as L(1) from the
    zeta oracle, which counts points over F_q and F_{q^2}."""
    classes = [C.identity(), *_pair_classes(C.domain, C.F)]
    nJ = zeta_order(C)[3]
    if len(set(classes)) != len(classes) or len(classes) != nJ:
        raise ZetaMismatch(f"{C}: enumerated {len(classes)} classes, {len(set(classes))} distinct; zeta says {nJ}")
    return sorted(classes)
