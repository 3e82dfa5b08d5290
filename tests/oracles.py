"""Independent brute-force reference implementations used only as test oracles.

Everything here is deliberately naive (explicit loops, no shared code with
the package) so that agreement with the fast paths is meaningful.
"""

import math

import numpy as np


def conv2d_loop(x, weights, bias=None):
    """Direct quadruple-loop 3x3 cross-correlation, zero padding 1."""
    b, c, h, w = x.shape
    n = weights.shape[0]
    out = np.zeros((b, n, h, w), dtype=np.float64)
    xp = np.zeros((b, c, h + 2, w + 2), dtype=np.float64)
    xp[:, :, 1 : h + 1, 1 : w + 1] = x
    for bi in range(b):
        for ni in range(n):
            for yi in range(h):
                for xi in range(w):
                    acc = 0.0
                    for ci in range(c):
                        for ki in range(3):
                            for kj in range(3):
                                acc += (
                                    xp[bi, ci, yi + ki, xi + kj]
                                    * weights[ni, ci, ki, kj]
                                )
                    if bias is not None:
                        acc += bias[ni]
                    out[bi, ni, yi, xi] = acc
    return out


def batchnorm_twopass(x, gamma, beta, epsilon):
    """Two-pass per-channel mean/variance normalization (train mode)."""
    b, c, h, w = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for ci in range(c):
        vals = x[:, ci, :, :].reshape(-1).astype(np.float64)
        mean = vals.sum() / vals.size
        var = ((vals - mean) ** 2).sum() / vals.size
        out[:, ci, :, :] = (
            gamma[ci] * (x[:, ci, :, :] - mean) / math.sqrt(var + epsilon) + beta[ci]
        )
    return out


def central_difference(f, x, step=1e-4):
    """64-bit central finite-difference gradient of scalar f at array x."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f(x)
        flat[i] = orig - step
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def rel_err(a, b, floor=1e-6):
    """Elementwise relative error with an absolute floor for tiny entries."""
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def sparsity_loop(weights, c):
    """Sum of entrywise absolute values of all kernels reading channel c."""
    acc = 0.0
    n = weights.shape[0]
    for ni in range(n):
        for ki in range(3):
            for kj in range(3):
                acc += abs(float(weights[ni, c, ki, kj]))
    return acc


def density_metric_bruteforce(weights, c, k):
    """All-pairs distances + sort; ties at the k-th neighbor broken by index."""
    n = weights.shape[0]
    kernels = [weights[i, c].astype(np.float64).ravel() for i in range(n)]
    dm = np.zeros(n)
    kk = min(k, n - 1)
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d = math.sqrt(float(((kernels[i] - kernels[j]) ** 2).sum()))
            dists.append((d, j))
        dists.sort()
        dm[i] = sum(d for d, _ in dists[:kk])
    return dm


def entropy_from_dm(dm):
    """Shannon entropy (bits) of dm normalized to a distribution."""
    n = len(dm)
    if n <= 1:
        return 0.0
    total = float(np.sum(dm))
    if total == 0.0:
        return math.log2(n)
    e = 0.0
    for v in dm:
        p = float(v) / total
        if p > 0.0:
            e -= p * math.log2(p)
    return e


def minmax_norm(values):
    vals = np.asarray(values, dtype=np.float64)
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        return np.zeros_like(vals)
    return (vals - lo) / (hi - lo)


def kse_layer_bruteforce(weights, alpha, k):
    """Full per-layer recomputation: raw s, raw e, normalized kse."""
    c_in = weights.shape[1]
    s = np.array([sparsity_loop(weights, c) for c in range(c_in)])
    e = np.array(
        [
            entropy_from_dm(density_metric_bruteforce(weights, c, k))
            for c in range(c_in)
        ]
    )
    s_n = minmax_norm(s)
    e_n = minmax_norm(e)
    kse = np.sqrt(s_n / (1.0 + alpha * e_n))
    return s, e, kse


def ensemble_bias_loop(realizations, lesion_voxels, truth):
    """Flat-loop percent deviation of the mean lesion value from truth."""
    r_means = []
    for real in realizations:
        acc = 0.0
        for v in lesion_voxels:
            acc += float(real[tuple(v)])
        r_means.append(acc / len(lesion_voxels))
    t_acc = 0.0
    for v in lesion_voxels:
        t_acc += float(truth[tuple(v)])
    t_mean = t_acc / len(lesion_voxels)
    return (sum(r_means) / len(r_means) - t_mean) / t_mean * 100.0


def ensemble_cov_loop(realizations, bg_voxels):
    """Flat-loop ROI-mean ensemble std (sample convention) over grand mean."""
    r = len(realizations)
    stds = []
    grand = 0.0
    for v in bg_voxels:
        vals = [float(real[tuple(v)]) for real in realizations]
        mean = sum(vals) / r
        var = sum((x - mean) ** 2 for x in vals) / (r - 1)
        stds.append(math.sqrt(var))
        grand += mean
    grand /= len(bg_voxels)
    return (sum(stds) / len(stds)) / grand * 100.0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """First/second moment estimates for one parameter array."""

    def __init__(self, a):
        self.m = np.zeros_like(a)
        self.v = np.zeros_like(a)


def adam_reference(param, grad, state, step, lr, keep):
    """One Adam step on one array; where ``keep`` is true the parameter and
    both moments are carried through unchanged."""
    m_new = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v_new = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m_new / (1.0 - ADAM_BETA1**step)
    v_hat = v_new / (1.0 - ADAM_BETA2**step)
    p_new = param - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if keep is not None:
        p_new = np.where(keep, param, p_new)
        m_new = np.where(keep, state.m, m_new)
        v_new = np.where(keep, state.v, v_new)
    state.m, state.v = m_new, v_new
    return p_new


def masked_conv_update_reference(params, gw, gb, mask, sw, sb, step, lr, weight_decay):
    """Per-array masked Adam on a conv layer: weight decay on weight and
    bias, whole output channels frozen where the mask is 0."""
    if weight_decay:
        gw = gw + weight_decay * params.weights
    keep_w = None if mask is None else (mask == 0)[:, None, None, None]
    params.weights = adam_reference(params.weights, gw, sw, step, lr, keep_w)
    if params.bias is not None:
        if weight_decay:
            gb = gb + weight_decay * params.bias
        keep_b = None if mask is None else (mask == 0)
        params.bias = adam_reference(params.bias, gb, sb, step, lr, keep_b)


def masked_bn_update_reference(params, gg, gb, mask, sg, sb, step, lr):
    """Per-array masked Adam on batchnorm gamma/beta, no weight decay."""
    keep = None if mask is None else (mask == 0)
    params.gamma = adam_reference(params.gamma, gg, sg, step, lr, keep)
    params.beta = adam_reference(params.beta, gb, sb, step, lr, keep)


class PerLayerAdam:
    """The masked Adam step taken one array at a time: one moment pair per
    conv weight, conv bias, BN gamma and BN beta, one call per layer."""

    def __init__(self, net, conv_masks, lr, weight_decay=0.0):
        self.masks = conv_masks
        self.lr, self.weight_decay, self.t = lr, weight_decay, 0
        self.states = []
        for blk in net.blocks:
            s = [AdamState(blk.conv.weights)]
            if blk.conv.bias is not None:
                s.append(AdamState(blk.conv.bias))
            if blk.bn is not None:
                s += [AdamState(blk.bn.gamma), AdamState(blk.bn.beta)]
            self.states.append(s)

    def step(self, net, grads):
        self.t += 1
        for i, (blk, g, s) in enumerate(zip(net.blocks, grads, self.states)):
            mask = None if self.masks is None else self.masks[i]
            sb = s[1] if blk.conv.bias is not None else None
            masked_conv_update_reference(
                blk.conv, g.weights, g.bias, mask, s[0], sb,
                self.t, self.lr, self.weight_decay,
            )
            if blk.bn is not None:
                masked_bn_update_reference(
                    blk.bn, g.gamma, g.beta, mask, s[-2], s[-1], self.t, self.lr
                )

    def moments(self):
        """Both moments flattened block by block, array by array."""
        flat = [st for s in self.states for st in s]
        return (
            np.concatenate([st.m.ravel() for st in flat]),
            np.concatenate([st.v.ravel() for st in flat]),
        )
