"""Distributed detection of compromised absolute-position sensors.

Each vehicle refines three sensor sets every step from purely local data:
a gap test cross-checks consecutive absolute sensors through the secured
relative reading between them, an innovation test compares the own sensor
against the model prediction and the current error bound, and two counting
rules convert accumulated suspicion into certainty once the attack budget
``b`` is exhausted.  All rules are conservative by construction: with
bounded noise they never implicate an attack-free sensor, so the sets only
ever move toward the truth (attacked sensors into ``attacked``, cleared
ones into ``trusted``).
"""

import math
from dataclasses import dataclass

from .core import DetectionSets, InconsistentSetsError

#: absolute slack subtracted from every test statistic so accumulated
#: floating-point rounding can never fire a rule on attack-free data
SLACK = 1e-12


def pairwise_check(y_rel, y_abs_front, y_abs_own, mu: float) -> bool:
    """Gap test between sensors ``i-1`` and ``i``.

    The relative reading plus the front absolute reading must reproduce the
    own absolute reading up to three noise radii; anything larger proves at
    least one of the two absolute sensors is lying.
    """
    r0 = y_rel[0] + y_abs_front[0] - y_abs_own[0]
    r1 = y_rel[1] + y_abs_front[1] - y_abs_own[1]
    return math.hypot(r0, r1) - SLACK > 3.0 * mu


def innovation_check(y_abs_own, x_bar_own, bound_prev: float,
                     eps: float, mu: float, norm_A: float) -> bool:
    """Self test of the own absolute sensor against the model prediction.

    An attack-free reading can differ from the prediction by at most the
    propagated error bound plus process and measurement noise; beyond that
    the own sensor must be compromised.
    """
    r0 = y_abs_own[0] - x_bar_own[0]
    r1 = y_abs_own[1] - x_bar_own[1]
    return math.hypot(r0, r1) - SLACK > eps + mu + norm_A * bound_prev


def split_suspicious(indices) -> list:
    """Maximal runs of consecutive indices, ascending."""
    runs = []
    cur = []
    for v in sorted(indices):
        if cur and v == cur[-1] + 1:
            cur.append(v)
        else:
            if cur:
                runs.append(tuple(cur))
            cur = [v]
    if cur:
        runs.append(tuple(cur))
    return runs


def min_attacked_count(indices) -> int:
    """Least number of attacked sensors that could explain the suspicion.

    The gap test implicates pairs, so a single attacked sensor can drag at
    most its two neighbours into suspicion: every run of ``r`` consecutive
    suspects needs at least ``ceil(r/3)`` true attacks.
    """
    if len(indices) <= 1:  # zero or one suspect needs exactly that many
        return len(indices)
    count = 0
    run_len = 0
    prev = 0
    for v in sorted(indices):
        if run_len and v == prev + 1:
            run_len += 1
        else:
            count += (run_len + 2) // 3
            run_len = 1
        prev = v
    return count + (run_len + 2) // 3


def saturation_check(indices, b: int) -> bool:
    """True when the suspicion pattern already requires all ``b`` attacks."""
    return min_attacked_count(indices) == b


@dataclass(frozen=True, slots=True)
class DetectorStepResult:
    sets: DetectionSets
    pairwise: bool
    innovation: bool
    exhaustion: bool
    completion: bool


def detector_step(i: int, fused: DetectionSets, y_rel_own, y_abs_front, y_abs_own,
                  x_bar_own, bound_prev: float, n_vehicles: int, b: int,
                  mu: float, eps: float, norm_A: float,
                  memo: list | None = None) -> DetectorStepResult:
    """One detection update for vehicle ``i`` (fusion already applied).

    Applies, in order: the gap test on the pair ``(i-1, i)``, the innovation
    self test, the budget-exhaustion rule (suspicion alone already pins down
    ``b`` attacks, so everyone unsuspected is clean), and the completion
    rule (all ``b`` attacks confirmed, so everyone else is clean).  The
    readings and the prediction are float pairs.

    A set is rebuilt only when a rule adds to it; when none does, the fused
    sets are returned as-is (same object), so callers can recognise an
    unchanged classification by identity.

    ``memo``, if given, has one slot per vehicle, kept by the caller across
    steps.  When neither measurement test fires, the counting rules'
    outcome (exhaustion, completion and the suspect clean-up) depends only
    on ``fused``, ``b`` and ``n_vehicles``, so slot ``i-1`` keeps that
    outcome for the last fused object seen and returns it while the same
    object recurs.
    """
    trusted = fused.trusted
    attacked = fused.attacked
    suspected = fused.suspected

    fired_pair = (i >= 2 and i not in attacked and (i - 1) not in attacked
                  and pairwise_check(y_rel_own, y_abs_front, y_abs_own, mu))
    if fired_pair:
        if i in trusted:
            attacked = attacked | {i - 1}
        elif (i - 1) in trusted:
            attacked = attacked | {i}
        else:
            suspected = suspected | {i - 1, i}

    fired_inno = (i not in attacked and i not in trusted
                  and innovation_check(y_abs_own, x_bar_own, bound_prev,
                                       eps, mu, norm_A))
    if fired_inno:
        attacked = attacked | {i}

    quiet = memo is not None and not (fired_pair or fired_inno)
    if quiet:
        entry = memo[i - 1]
        if entry is not None and entry[0] is fused:
            return entry[1]

    # trusted holds only sensors 1..N, so a size test plus disjointness shows
    # that a counting rule would add nobody
    union = attacked | suspected if suspected else attacked
    fired_exh = saturation_check(union, b)
    if fired_exh and not (len(trusted) == n_vehicles - len(union)
                          and trusted.isdisjoint(union)):
        trusted = trusted.union(v for v in range(1, n_vehicles + 1) if v not in union)

    fired_comp = len(attacked) == b
    if fired_comp and not (len(trusted) == n_vehicles - len(attacked)
                           and trusted.isdisjoint(attacked)):
        trusted = frozenset(v for v in range(1, n_vehicles + 1) if v not in attacked)

    if len(attacked) > b:
        raise InconsistentSetsError(
            f"vehicle {i} confirmed {len(attacked)} attacked sensors {sorted(attacked)}, "
            f"more than the budget b={b}; a modelling assumption is violated")

    if suspected and not (suspected.isdisjoint(attacked)
                          and suspected.isdisjoint(trusted)):
        suspected = suspected - attacked - trusted
    if (trusted is fused.trusted and attacked is fused.attacked
            and suspected is fused.suspected):
        sets = fused
    else:
        sets = DetectionSets(trusted, attacked, suspected)
    res = DetectorStepResult(sets, fired_pair, fired_inno, fired_exh, fired_comp)
    if quiet:
        memo[i - 1] = (fused, res)
    return res
