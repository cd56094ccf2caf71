"""One entry point for subspace classification.

``classify`` picks the engine from ``space.kind``: the component conditions
of the max norm, the norming-set conditions of the sum norm, and otherwise
the generic engine on the norming-functional set J_Y.  Each verdict comes
with the certificates its engine produced.  Under ``verify`` the generic
engine re-runs on the two named families and any disagreement raises
``Discrepancy``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .coapproximation import is_anti_coproximinal, is_strongly_anti_coproximinal
from .errors import Discrepancy
from .l1 import cell_bound, l1_is_anti_coproximinal
from .linf import linf_classify
from .spaces import PolyhedralSpace
from .subspaces import Subspace, _check_ambient


@dataclass(frozen=True)
class Classification:
    """Verdicts "yes" or "no" with the engine that gave them.

    ``engine`` is "linf-fast", "l1-fast" or "generic"; ``certificates``
    holds that engine's witnesses.  ``generic`` is the generic engine's own
    classification when a fast path ran under ``verify``, else None.
    """

    anti: str
    strongly_anti: str
    engine: str
    certificates: dict
    generic: Classification | None = None


def _linf(y: Subspace) -> Classification:
    verdict = linf_classify(y.basis)
    answer = "yes" if verdict.strongly_anti else "no"
    if verdict.strongly_anti:
        certificates = {"star_witnesses": {str(i): r.witness for i, r in verdict.star_results}}
    else:
        certificates = {
            "failing_index": verdict.failing_index,
            "failing_clause": verdict.failing_clause,
            "reason": verdict.reason,
        }
    return Classification(answer, answer, "linf-fast", certificates)


def _l1(y: Subspace) -> Classification:
    anti = l1_is_anti_coproximinal(y.basis)
    n = y.ambient_dim
    certificates: dict = {"bound": cell_bound(n, y.dim), "sign_vectors": 2**n}
    if anti.status == "no":
        certificates["reason"] = anti.reason
        if anti.witness_x is not None:
            certificates["witness_x"] = anti.witness_x
    if anti.norming is not None:
        certificates["norming_size"] = anti.norming.size
        certificates["norming_rank"] = anti.rank
    return Classification(anti.status, "no", "l1-fast", certificates)


def _generic(space: PolyhedralSpace, y: Subspace) -> Classification:
    anti = is_anti_coproximinal(space, y)
    strong = is_strongly_anti_coproximinal(space, y)
    certificates: dict = {
        "jy_size": strong.jy.size,
        "jy_indices": list(strong.jy.indices),
        "rank": anti.rank,
        "smooth_dense": anti.smooth_dense,
    }
    if anti.status == "no":
        certificates["witness_x"] = anti.witness_x
        certificates["witness_y0"] = anti.witness_y0
    if strong.status == "no":
        certificates["missed_facet"] = strong.missed
        certificates["interior_point"] = strong.interior_point
        certificates["epsilon0"] = strong.epsilon0
    return Classification(anti.status, strong.status, "generic", certificates)


def classify(space: PolyhedralSpace, y: Subspace, verify: bool = False) -> Classification:
    """Is Y (strongly) anti-coproximinal in the space?

    The max-norm and sum-norm spaces take their fast paths, every other
    space the generic engine.
    """
    _check_ambient(space, y)
    if space.kind == "linf":
        fast = _linf(y)
    elif space.kind == "l1":
        fast = _l1(y)
    else:
        return _generic(space, y)
    if not verify:
        return fast
    generic = _generic(space, y)
    if generic.strongly_anti != fast.strongly_anti:
        raise Discrepancy(
            f"fast path says strongly_anti={fast.strongly_anti}, "
            f"generic says {generic.strongly_anti}"
        )
    if generic.anti != fast.anti:
        raise Discrepancy(f"fast path says anti={fast.anti}, generic says {generic.anti}")
    return replace(fast, generic=generic)


__all__ = ["Classification", "classify"]
