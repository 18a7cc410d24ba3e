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

The detector also owns a run's detection state: :func:`row_detector` makes
one run's step, which fuses every vehicle's sets with its neighbours'
previous-step sets and runs :func:`detector_step` on the result.
"""

import itertools
import math
from dataclasses import dataclass

from .core import DetectionSets, InconsistentSetsError, describe_clash

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

    ``memo``, if given, has one slot per vehicle, kept across steps by the
    run's :func:`row_detector`.  When neither measurement test fires, the
    counting rules' outcome (exhaustion, completion and the suspect
    clean-up) depends only on ``fused``, ``b`` and ``n_vehicles``, so slot
    ``i-1`` keeps that outcome for the last fused object seen and returns it
    while the same object recurs.
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


#: every flag row ``(pairwise, innovation, exhaustion, completion)``, at index
#: ``8*pairwise + 4*innovation + 2*exhaustion + completion``, so a run shares
#: these 16 tuples instead of keeping one per vehicle and step
_FLAG_ROWS = tuple(itertools.product((False, True), repeat=4))


def row_detector(topo, fuse, b: int, mu: float, eps: float, norm_A: float):
    """The detector of one run's platoon: the step-0 sets and flag tuples,
    and ``detect_rows(t, y_abs, y_rel, x_bar, alpha)``, which returns step
    ``t``'s.  Vehicle ``i`` fuses its own and its neighbours' previous sets
    with ``fuse`` (``core.fuse_sets``), then runs :func:`detector_step`
    against its previous ``alpha``.  A step that keeps the last step's set
    objects, or repeats its flag rows, returns that step's tuple.

    Fusion and detection hand back their input object when no set grew, and
    ``canon`` maps each new value to the run's first object of it, so the
    identity memos key on values in effect: fusion reruns only for the
    vehicles in ``refuse``, whose own or a neighbour's sets changed in the
    last step (without this the N=101, H=500 run took about 22% longer,
    best of 10 on a 2-core Xeon host), and ``memo`` keeps
    :func:`detector_step`'s counting rules.
    """
    n = topo.N
    vehicles = range(1, n + 1)
    nbr_lists = [sorted(topo.neighbors[i]) for i in vehicles]
    local = [[k, *(j - 1 for j in nbr_lists[k])] for k in range(n)]
    sets = (DetectionSets.empty(),) * n
    canon = {sets[0]: sets[0]}
    fused, memo = [None] * n, [None] * n
    refuse = set(range(n))
    fired = (_FLAG_ROWS[0],) * n

    def detect_rows(t: int, y_abs: list, y_rel: list, x_bar: list,
                    alpha: list) -> tuple[tuple, tuple]:
        nonlocal sets, fired, refuse
        new_sets = []
        flags = []
        try:
            for i in vehicles:
                k = i - 1
                if k in refuse:
                    f = fuse(sets[k], tuple(sets[j - 1] for j in nbr_lists[k]))
                    fused[k] = f if f is sets[k] else canon.setdefault(f, f)
                res = detector_step(i, fused[k], y_rel[i - 2] if i >= 2 else None,
                                    y_abs[i - 2] if i >= 2 else None, y_abs[k], x_bar[k],
                                    alpha[k], n, b, mu, eps, norm_A, memo)
                s = res.sets
                new_sets.append(s if s is fused[k] else canon.setdefault(s, s))
                flags.append(_FLAG_ROWS[8 * res.pairwise + 4 * res.innovation
                                        + 2 * res.exhaustion + res.completion])
        except InconsistentSetsError as exc:
            clash = describe_clash([(j, sets[j - 1]) for j in sorted([i, *nbr_lists[i - 1]])])
            raise InconsistentSetsError(f"step {t}, vehicle {i}: {exc}"
                                        + (f"; {clash}" if clash else "")) from exc
        refuse = {j for k in range(n) if new_sets[k] is not sets[k] for j in local[k]}
        if refuse:
            sets = tuple(new_sets)
        if (step_fired := tuple(flags)) != fired:
            fired = step_fired
        return sets, fired
    return sets, fired, detect_rows
