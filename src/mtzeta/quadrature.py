"""Double-exponential (tanh-sinh) quadrature on (0,1) and (0,inf).

The substitution u = (1 + tanh((pi/2) sinh(t))) / 2 maps the real line
onto (0,1) and makes the transformed integrand decay doubly
exponentially, so the trapezoid rule in t converges geometrically even
when the integrand has an endpoint singularity like u^{x-1}.

Nodes are expressed through q = exp(-pi sinh(t)):

    u_left  = q / (1 + q)          (node near 0)
    u_right = 1 / (1 + q)          (node near 1)
    du/dt   = pi cosh(t) q / (1 + q)^2

computed in this form so u_left keeps full relative accuracy down to
doubly-exponentially small values; it never rounds to an endpoint.

Each row of new nodes is summed outward from t = 0 and cut on each side
on its own: the u_left side stops after _TAIL_RUN consecutive negligible
terms of its own, whatever the u_right side does, and the other way
round.  One side usually dies long before the other (near 1 the weight
alone decides; near 0 an integrand like u^{x-1} log^r u keeps the terms
alive), so no evaluations are spent on the dead side.

Levels halve the step h, reusing all previous evaluations (new nodes sit
at odd multiples of the new h).  Refinement stops at the level k where
d_k = |S_k - S_{k-1}| <= (tol/4) max(1, |S_k|), and where digit
doubling puts S_k's own error, about d_k^2/d_{k-1}, below
max(2^-(bits-16), (tol/4)^2)/4 of max(1, |S_k|): the accuracy that one
level past the agreeing one delivers, asked for directly.  It is capped
by context.QUAD_LEVELS; hitting the cap raises instead of returning a bad
value.

The nodes depend only on the working precision and the level, so they
live in one module-level table keyed by (mp.prec, level), holding every
precision used in the process.  Each row lists its (u_left, u_right,
du/dt), cosh and sinh of t from one call, in visiting order, and grows
lazily to the farthest node any call has reached.  The tail cut, the
finiteness check, the divergence limit and the level cap stay per call.

de_quad_0inf runs one DE line u = log(1 + q) over (0,inf), folded onto
the exact side s = q/(1 + q) of the (0,1) rows, so no nodes are spent
at an interior split where the integrand is smooth.  Towards u -> inf,
u grows like pi sinh(t), so an e^{-cu} decay becomes doubly exponential
in t, as on (0,1).  The map u = 1/v would make it triply exponential,
which over-transforms (Mori and Sugihara, J. Comput. Appl. Math. 127,
2001): the step must then resolve the integrand on a scale that shrinks
doubly exponentially, costing about one more level.  The two u of each
folded node, 1 - s and the far u as a float are kept per precision in
_far_u.  Given a float bound on ln|f|, a folded node skips its u -> inf
term where rounding to nearest would drop it, so no bit moves.

The per-node arithmetic runs on raw mpf tuples (mpmath.libmp), which
skips the operators' dispatch and object creation.  The rounding rule
that keeps every value bit-identical to the operator form: each raw call
that rounds takes the working precision mp.prec and round-to-nearest
'n', as the mpf operators do, or the precisions of the mpmath function
it replaces (log1p: 10 bits up, rounded once).  mpf_shift, which does
not round, only replaces a product or quotient by a power of two whose
other operand already fits in mp.prec bits, where the operator's
rounding changes nothing.  The integrand still takes and returns mpf,
and its value is rounded to the working precision as mpf(f(u)) does.
"""

import math

from mpmath import mp, mpf
from mpmath.libmp import (
    fhalf, finf, fnan, fninf, fone, fzero, from_man_exp, mpf_abs, mpf_add, mpf_cosh_sinh,
    mpf_div, mpf_exp, mpf_gt, mpf_le, mpf_log, mpf_mul, mpf_neg, mpf_pi, mpf_pos, mpf_shift,
    mpf_sub, round_nearest, to_float,
)

from .context import QUAD_LEVELS
from .errors import QuadratureError

__all__ = ["de_quad_01", "de_quad_0inf"]

# consecutive negligible terms before one side of a row is cut; a
# significant term on that side resets its count, so a hump there that
# begins before the count runs out is not skipped
_TAIL_RUN = 3

# (mp.prec, level) -> [(u_left, u_right, du/dt), ...] in the order
# _row_sum visits them; entries are pure functions of their key
_nodes = {}

# mp.prec -> {s._mpf_: (-log(1 - s), -log s, 1 - s, float(-log s))}: the
# two u of a folded node of de_quad_0inf, and what its terms need of s
_far_u = {}

# bits between a skipped far term's bound and a quarter ulp of the near
# term, for the rounding of the integrand and of log_bound
_FAR_MARGIN = 10
_LOG2E = 1 / math.log(2)


def _row_sum(f, level, cut):
    """Trapezoid contributions at the nodes new at `level`, t = j*2^-level
    for j = 1, 2, 3, ... (level 0) or j = 1, 3, 5, ... (level >= 1).

    Returns the raw sum over the u -> 0 and u -> 1 sides, without the h
    factor.  Each side is cut on its own, after _TAIL_RUN consecutive
    terms w*f(u) <= 2^cut (1 + |total|); the row ends when both have been.
    """
    prec, rnd = mp.prec, round_nearest
    row = _nodes.setdefault((prec, level), [])
    j_step = 1 if level == 0 else 2
    total = fzero
    small_runs = [0, 0]  # u_left side, u_right side
    i = 0
    while min(small_runs) < _TAIL_RUN:
        j = 1 + i * j_step
        if j > 20 << level:
            # t > 20, sinh(20) ~ 2.4e8: the weight has underflowed any
            # practical precision, so surviving terms mean the integrand diverges
            raise QuadratureError("tail of transformed integrand does not decay")
        if i == len(row):
            ch, sh = mpf_cosh_sinh(from_man_exp(j, -level), prec, rnd)
            pi = mpf_pi(prec, rnd)
            q = mpf_exp(mpf_mul(mpf_neg(pi), sh, prec, rnd), prec, rnd)
            q1 = mpf_add(q, fone, prec, rnd)
            base = mpf_div(q, q1, prec, rnd)
            w = mpf_mul(mpf_mul(pi, ch, prec, rnd), q, prec, rnd)
            row.append((mp.make_mpf(base), mp.make_mpf(mpf_sub(fone, base, prec, rnd)),
                        mpf_div(w, mpf_mul(q1, q1, prec, rnd), prec, rnd)))
        node = row[i]
        for side in (0, 1):
            if small_runs[side] >= _TAIL_RUN:
                continue
            y = f(node[side])
            y = mpf_pos(y._mpf_, prec, rnd) if type(y) is mpf else mpf(y)._mpf_
            term = mpf_mul(node[2], y, prec, rnd)
            if term in (finf, fninf, fnan):
                raise QuadratureError(
                    "integrand not finite at node t=%s" % mp.nstr(mp.ldexp(j, -level), 8)
                )
            total = mpf_add(total, term, prec, rnd)
            bound = mpf_shift(mpf_add(mpf_abs(total, prec, rnd), fone, prec, rnd), cut)
            if mpf_le(mpf_abs(term, prec, rnd), bound):
                small_runs[side] += 1
            else:
                small_runs[side] = 0
        i += 1
    return total


def de_quad_01(f, ctx, tol=None):
    """Integrate f over (0,1) to the requested tolerance.

    f receives nodes strictly inside (0,1); a left-endpoint singularity
    integrable there is handled by the transform.  Raises
    QuadratureError if QUAD_LEVELS levels pass without meeting the
    two-part stop of the module docstring; level 1, which has no error
    estimate, meets it only with a zero difference.

    Each side of a row is cut after _TAIL_RUN consecutive negligible
    terms of its own, so a side whose terms fall below the cut three
    times and only then rise to a hump misses the hump, even while the
    other side is still significant.  The Mellin integrands of series
    cannot do this: towards an endpoint where the integrand is smooth
    the terms fall with the weight alone.  On de_quad_0inf's folded line
    each term of the side s < 1/2 adds two parts that start significant
    at t = 0 and have one maximum each: towards u -> 0, u^{x-1} log^r u
    rises only polynomially; towards u -> inf, about pi cosh(t) F(u)
    u^{x-1} at u = pi sinh(t) (F(u) ~ e^{-(a+|omega|)u} times powers of
    u) rises with u^x until u ~ x/(a+|omega|), then falls doubly
    exponentially (where de_quad_0inf skips that part, the term keeps
    its bits).  Mass at widely separated scales is not covered.
    """
    with ctx.workprec():
        prec, rnd = mp.prec, round_nearest
        if tol is None:
            tol = ctx.target_tol
        tol = mpf(tol)
        quarter_tol = mpf_shift(tol._mpf_, -2)
        deep = (max(mpf(2) ** (16 - ctx.precision_bits), (tol / 4) ** 2) / 4)._mpf_
        cut = -(ctx.precision_bits + 8)  # log2 of the row cut

        # level 0, h = 1: center node j=0 plus the symmetric tail; at
        # level k, h = 2^-k scales the row sum exactly
        center = mpf_mul(mpf_shift(mpf_pi(prec, rnd), -2), mpf(f(mpf(1) / 2))._mpf_, prec, rnd)
        row = mpf_add(center, _row_sum(f, 0, cut), prec, rnd)
        # level 1 has no estimate: d_0 = 0 lets it return only at d_1 = 0
        prev, prev_d = row, fzero
        for level in range(1, QUAD_LEVELS + 1):
            row = mpf_add(row, _row_sum(f, level, cut), prec, rnd)
            cur = mpf_shift(row, -level)
            size = mpf_abs(cur, prec, rnd)
            size = size if mpf_gt(size, fone) else fone
            d = mpf_abs(mpf_sub(cur, prev, prec, rnd), prec, rnd)
            if mpf_le(d, mpf_mul(quarter_tol, size, prec, rnd)) and mpf_le(
                mpf_mul(d, d, prec, rnd), mpf_mul(mpf_mul(prev_d, deep, prec, rnd), size, prec, rnd)
            ):
                return mp.make_mpf(mpf_pos(cur, prec, rnd))
            prev, prev_d = cur, d
        raise QuadratureError(
            "no convergence to %s within %d levels" % (mp.nstr(tol, 5), QUAD_LEVELS)
        )


def de_quad_0inf(f, ctx, log_bound=None):
    """Integrate f over (0,inf) to ctx.target_tol as de_quad_01 of the
    folded line g(s) = f(-log(1-s))/(1-s) + f(-log s)/s for s < 1/2
    (t > 0 of the line gives u -> 0, t < 0 gives u -> inf),
    g(1/2) = f(log 2)/(1/2) (the centre, counted once), and g = 0 for
    s > 1/2, a side cut after _TAIL_RUN terms.  On the rows this is,
    node for node, the trapezoid sum of the DE line.

    f must decay at least exponentially as u -> inf, as the Mellin
    integrands of series do.  An algebraic tail like 1/u^2 gives terms
    that fall only like 1/sinh(t), still near 1e-9 at t = 20, so it
    raises QuadratureError at that limit in the first row.  The two u of
    each node are kept in _far_u, so a warm call takes no logarithm.

    log_bound, if given, maps a float u >= log 2 to a float upper bound
    on ln|f(u)|.  The near term is evaluated first, and the far term
    f(-log s)/s, at most e^(bound + u), is skipped where that lies
    _FAR_MARGIN bits (and a 1e-9 relative slack for float rounding)
    below a quarter ulp of the near term: round-to-nearest would return
    the near term unchanged, so every value stays bit-identical and only
    integrand calls are saved."""

    def folded(v):
        prec, rnd, s = mp.prec, round_nearest, v._mpf_
        if mpf_gt(s, fhalf):
            return mp.zero
        far_u = _far_u.setdefault(prec, {})
        record = far_u.get(s)
        if record is None:
            # -log1p(-s) as mpmath takes it 10 bits up, rounded once: -s - s^2/2
            # below 2^-wp, which rounds to -s, else log(1 - s); and -ln s
            wp = prec + 10
            log1p = mpf_neg(s) if s[2] + s[3] < -wp else mpf_log(mpf_add(fone, mpf_neg(s), 2 * wp, rnd), wp, rnd)
            far = mpf_neg(mpf_log(s, prec, rnd))
            record = far_u[s] = (mp.make_mpf(mpf_neg(log1p, prec, rnd)), mp.make_mpf(far),
                                 mpf_sub(fone, s, prec, rnd), to_float(far, rnd=rnd))
        u_near, u_far, one_minus_s, u = record
        if s == fhalf:
            return mp.make_mpf(mpf_div(mp.convert(f(u_far))._mpf_, s, prec, rnd))
        near = mpf_div(mp.convert(f(u_near))._mpf_, one_minus_s, prec, rnd)
        if log_bound is not None and near[1]:  # near is finite and nonzero
            ln_far = log_bound(u) + u  # |f(u)|/s <= e^ln_far, as s = e^-u
            # near[2] + near[3] - 1 = floor(log2 |near|)
            if (ln_far + 1e-9 * (abs(ln_far) + u)) * _LOG2E < near[2] + near[3] - 3 - prec - _FAR_MARGIN:
                return mp.make_mpf(near)
        far = mpf_div(mp.convert(f(u_far))._mpf_, s, prec, rnd)
        return mp.make_mpf(mpf_add(near, far, prec, rnd))

    return de_quad_01(folded, ctx)
