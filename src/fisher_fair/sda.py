"""Stochastic dual averaging over sampled items.

Each round draws one item location uniformly, charges the whole stochastic
subgradient to the buyer whose scaled density wins there (smallest index on
ties), and re-solves the regularized model in closed form.  With G_t the
running sum of the winning values each buyer has been charged after t
samples, the iterate that scores sample t + 1 is

    beta_{t+1, i} = clamp(B_i t / G_{t, i}, lower_i, upper_i),

the same iterate as clamp(B_i / gbar_{t, i}) with gbar_t = G_t / t the
averaged subgradient.  The loop keeps ``ratio = B / G``: one sample changes
one coordinate of G and of ratio, so a step is a multiply and an argmax to
score the sample and one multiply for the next iterate, on n-vectors.  A
buyer that has not won yet has ratio inf and sits at its upper bound.  Each
half of the clamp runs only at steps where its bound can bind: the upper
half while some buyer has not won yet or some ratio_i t is within a relative
1e-9 of upper_i or above, the lower half while some ratio_i t is within 1e-9
of lower_i or below.  Two step thresholds, which change only when a buyer
wins, decide this; elsewhere the clamp is the identity, so skipping it
changes no bit.  Sample locations and their values are drawn and built in
blocks of ``_BLOCK`` rows, so memory is O(_BLOCK * n) whatever the number of
samples.  Traces record the iterate and the uniform average beta_tilde at
power-of-two checkpoints; with a reference vector the squared error of the
average is recorded too, and ``mse_theory_bound`` evaluates the guarantee
curve (6(1+log t) + (log t)^2 / 2) / t * G_max^2 / sigma^2, with G_max from
``subgradient_bound``, that the empirical mean-squared error is compared
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envelope import beta_bounds
from .errors import ValidationError, check_count
from .market import MarketInstance


@dataclass
class SdaTrace:
    seed: int
    iterations: int
    checkpoints: np.ndarray     # iteration counts t
    beta: np.ndarray            # (len, n) iterate after t samples
    beta_avg: np.ndarray        # (len, n) uniform average of beta^1..beta^t
    sq_err: np.ndarray = None   # ||beta_avg - beta_ref||^2 when a reference is given

    def csv_rows(self):
        n = self.beta.shape[1]
        header = (["t"] + [f"beta_{i + 1}" for i in range(n)]
                  + [f"betaavg_{i + 1}" for i in range(n)])
        if self.sq_err is not None:
            header.append("sqerr")
        rows = []
        for r, t in enumerate(self.checkpoints):
            row = [int(t)] + list(self.beta[r]) + list(self.beta_avg[r])
            if self.sq_err is not None:
                row.append(float(self.sq_err[r]))
            rows.append(row)
        return header, rows


# samples drawn and valued at once; bounds memory at O(_BLOCK * n)
_BLOCK = 512


def _checkpoint_list(iters):
    pts = []
    t = 1
    while t < iters:
        pts.append(t)
        t *= 2
    pts.append(iters)
    return np.asarray(pts, dtype=int)


def subgradient_bound(instance: MarketInstance) -> float:
    """G = max_i sup_theta v_i(theta); densities are linear so segment
    endpoints attain the sup."""
    pts = instance.grid.points
    vals_lo = instance.c * pts[:-1][None, :] + instance.d
    vals_hi = instance.c * pts[1:][None, :] + instance.d
    return float(max(vals_lo.max(), vals_hi.max()))


def mse_theory_bound(instance: MarketInstance, t) -> np.ndarray:
    """Guarantee curve for E||beta_avg_t - beta*||^2."""
    t = np.asarray(t, dtype=float)
    G = subgradient_bound(instance)
    sigma = float(instance.budgets.min())
    logt = np.log(t)
    return (6.0 * (1.0 + logt) + 0.5 * logt ** 2) / t * (G / sigma) ** 2


def sda_run(instance: MarketInstance, iters: int, seed: int,
            beta_ref=None) -> SdaTrace:
    """One stochastic dual averaging run; bit-reproducible per seed."""
    iters = check_count("iters", iters, 1)
    seed = check_count("seed", seed, 0)
    n = instance.n
    ref = None
    if beta_ref is not None:
        try:
            ref = np.asarray(beta_ref, dtype=float)
        except (TypeError, ValueError):
            ref = np.empty(0)
        if ref.shape != (n,) or not np.all(np.isfinite(ref)):
            raise ValidationError(f"beta_ref must hold {n} finite numbers")
    lower, upper = beta_bounds(instance)
    ct, dt = instance.c.T, instance.d.T
    rng = np.random.default_rng(seed)
    checkpoints = _checkpoint_list(iters)
    # one coordinate changes per sample, and a list item is cheaper to
    # read and write than an array element
    G = [0.0] * n
    Bl = instance.budgets.tolist()
    lower_l = lower.tolist()
    ratio = np.full(n, np.inf)
    # the clamp changes nothing at step s when s_lo <= s <= s_up, with
    # s_lo = max_i lower_i / ratio_i and s_up = min_i upper_i / ratio_i;
    # the margin of 1e-9 covers the rounding of these quotients and of
    # ratio * s.  Only the winner's ratio changes, and it falls unless the
    # value charged is negative (a density may dip to -NONNEG_TOL), so s_lo
    # is a running max, never too low, and s_up, attained by buyer up_at,
    # is found again when up_at wins or a charged value is negative
    s_lo = 0.0
    skip_lo = skip_up = 0.0
    up_at = 0
    scores = np.empty(n)
    inf = math.inf
    beta_sum = np.zeros(n)
    # row j scores the block's sample j; row m is the iterate after the block
    betas = np.empty((_BLOCK + 1, n))
    betas[0] = upper
    rows = list(betas)
    out_beta = np.zeros((checkpoints.size, n))
    out_avg = np.zeros((checkpoints.size, n))
    sq = np.zeros(checkpoints.size) if ref is not None else None
    t = 0
    for r, stop in enumerate(checkpoints):
        while t < stop:
            m = min(_BLOCK, int(stop) - t)
            thetas = rng.random(m)
            seg = instance.grid.locate(thetas)
            values = ct[seg] * thetas[:, None] + dt[seg]  # (m, n)
            s = t
            for cur, row, vals in zip(rows, rows[1:], values):
                w = int(np.multiply(cur, vals, out=scores).argmax())
                v = vals.item(w)
                g = G[w] + v
                G[w] = g
                # no positive winnings yet (a zero-valued sample): stay at upper
                rw = Bl[w] / g if g > 0.0 else inf
                ratio[w] = rw
                q = lower_l[w] / rw
                if q > s_lo:
                    s_lo = q
                    skip_lo = q * (1.0 + 1e-9)
                if w == up_at or v < 0.0:
                    q_up = upper / ratio
                    up_at = int(q_up.argmin())
                    skip_up = q_up.item(up_at) * (1.0 - 1e-9)
                s += 1
                np.multiply(ratio, s, out=row)
                if s >= skip_up:
                    np.minimum(row, upper, out=row)
                if s <= skip_lo:
                    np.maximum(row, lower, out=row)
            beta_sum += betas[:m].sum(axis=0)
            betas[0] = betas[m]
            t += m
        out_beta[r] = betas[0]
        avg = beta_sum / t
        out_avg[r] = avg
        if sq is not None:
            diff = avg - ref
            sq[r] = float(np.dot(diff, diff))
    return SdaTrace(seed=seed, iterations=iters, checkpoints=checkpoints,
                    beta=out_beta, beta_avg=out_avg, sq_err=sq)


def mse_curve(instance: MarketInstance, iters: int, seeds, beta_ref):
    """Empirical MSE of the averaged iterate across replications.

    Returns a dict with the checkpoint grid, the per-checkpoint mean of
    ||beta_avg - beta_ref||^2 over the seeds, the theoretical envelope at the
    same checkpoints, and the final per-run errors.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("mse_curve needs at least one seed")
    total = None
    finals = []
    checkpoints = None
    for seed in seeds:
        trace = sda_run(instance, iters, seed, beta_ref=beta_ref)
        if total is None:
            checkpoints = trace.checkpoints
            total = np.zeros_like(trace.sq_err)
        total += trace.sq_err
        finals.append(math.sqrt(trace.sq_err[-1]))
    mse = total / len(seeds)
    return {
        "checkpoints": checkpoints,
        "mse": mse,
        "bound": mse_theory_bound(instance, checkpoints),
        "final_errors": np.asarray(finals),
        "replications": len(seeds),
    }
