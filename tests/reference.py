"""A slow forward pass written from the model's definitions: the test oracle
for ``model.forward``.

``reference_forward`` recomputes the forecast one (sample, window, channel)
at a time, the way the pipeline is defined, and shares no kernel with the
package: the lift is done in the time domain, each windowed segment goes
through ``np.fft.rfft``, top-M ranks the bins by a full sort, the backbone
is a sum over its (source, destination) window pairs (the hyper-complex one
is the Cayley-Dickson product of ``hypercomplex.cd_multiply_components``),
and synthesis is ``np.fft.irfft`` of the zero-padded kept bins, windowed,
overlap-added in a loop and divided by the per-sample window energy.  Of the
package it reads only the parameters' values and the config's fields.
"""

import numpy as np

from freqcast.hypercomplex import cd_multiply_components


def window(window_fn: str, nfft: int) -> np.ndarray:
    """The analysis window: ones, or the half-sample-offset Hann taper
    0.5 * (1 - cos(2 pi (t + 1/2) / nfft))."""
    if window_fn == "rectangular":
        return np.ones(nfft)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * (np.arange(nfft) + 0.5) / nfft))


def masked(w, mask):
    """Complex values with the masked plane, "real" or "imag", zeroed."""
    if mask == "real":
        return 1j * w.imag
    if mask == "imag":
        return w.real + 0j
    return w


def complex_weight(params, n: int) -> np.ndarray:
    """The backbone's n-th complex E x E weight."""
    return params.weights.data[0, n] + 1j * params.weights.data[1, n]


def weight_index(kind: str, p: int, radius: int, src: int, dst: int) -> int | None:
    """Which weight carries window src into window dst, or None: fd and wm
    list the p self weights first, wm then its neighbours at distance 1..radius
    in (src, dst) order, and basic every (src, dst) pair in that order."""
    if kind == "basic":
        return src * p + dst
    if src == dst:
        return dst
    if kind == "wm" and abs(src - dst) <= radius:
        return p + sorted((s, d) for s in range(p) for d in range(p)
                          if 0 < abs(s - d) <= radius).index((src, dst))
    return None


def pair_sum_oracle(kind, cv, params, radius, conjugate_neighbors, mask):
    """out_d = bias_d + sum over the kind's (src, dst) pairs of x_src @ W, in
    complex128; wm's neighbour weights enter conjugated when asked."""
    p = len(cv)
    out = []
    for dst in range(p):
        acc = params.biases.data[0, dst] + 1j * params.biases.data[1, dst] + np.zeros_like(cv[0])
        for src in range(p):
            n = weight_index(kind, p, radius, src, dst)
            if n is None:
                continue
            w = complex_weight(params, n)
            if kind == "wm" and src != dst and conjugate_neighbors:
                w = np.conj(w)
            acc = acc + cv[src] @ masked(w, mask)
        out.append(acc)
    return out


def hc_oracle(cv, params, mask):
    """out = bias + x * W over the embedding axis, with x the p windows and W
    the p weights read as base-2p hyper-complex numbers."""
    x = tuple(c[..., :, None] for c in cv)  # (..., E_in, 1)
    w = tuple(masked(complex_weight(params, j), mask) for j in range(len(cv)))  # (E_in, E_out)
    product = cd_multiply_components(x, w)
    return [params.biases.data[0, k] + 1j * params.biases.data[1, k] + product[k].sum(axis=-2)
            for k in range(len(cv))]


def reference_forward(x, params, cfg):
    """(B, T, D) forecasts of a (B, L, D) batch; the smallest relative gap
    between the M-th and the (M+1)-th highest score over all (sample, window,
    channel), inf when M keeps every bin: a gap near zero is a draw whose
    kept bins round-off may decide; and the routing the forecasts ran with,
    the kept bins (B, p, M, D) followed by the sign pattern of each ReLU's
    input (none under the identity activation)."""
    b_count, lookback, d_count = x.shape
    p, nfft, e, m = cfg.windows, cfg.nfft, cfg.embed, cfg.top_m
    hop = (lookback - nfft) // (p - 1) if p > 1 else 0
    starts = [i * hop for i in range(p)]
    w = window(cfg.window_fn, nfft)
    bins = nfft // 2 + 1
    # "w_real+x_real" zeroes the real plane of the weights and of the spectra
    masks = dict(part.split("_") for part in cfg.mask_mode.split("+") if part != "none")
    scale, bias = params.embed_scale.data, params.embed_bias.data

    lifted = x[..., None] * scale + bias  # (B, L, D, E)
    index = np.empty((b_count, p, m, d_count), dtype=int)
    kept = np.empty((b_count, p, m, d_count, e), dtype=complex)
    gap = np.inf
    for b in range(b_count):
        for i, s in enumerate(starts):
            for d in range(d_count):
                spectrum = np.fft.rfft(lifted[b, s:s + nfft, d] * w[:, None], axis=0)
                spectrum = masked(spectrum, masks.get("x"))
                score = (np.abs(spectrum) ** 2).sum(axis=1)
                ranked = sorted(range(bins), key=lambda k: (-score[k], k))
                if m < bins:
                    last, out = score[ranked[m - 1]], score[ranked[m]]
                    gap = min(gap, (last - out) / abs(last) if last else 0.0)
                index[b, i, :, d] = sorted(ranked[:m])
                kept[b, i, :, d] = spectrum[index[b, i, :, d]]

    cv = [kept[:, i] for i in range(p)]  # (B, M, D, E) each
    if cfg.backbone == "hc":
        mixed = hc_oracle(cv, params.backbone, masks.get("w"))
    else:
        mixed = pair_sum_oracle(cfg.backbone, cv, params.backbone, cfg.radius,
                                cfg.conjugate_neighbors, masks.get("w"))
    routing = [index]
    if cfg.activation == "relu":
        routing += [np.stack([c.real > 0 for c in mixed]), np.stack([c.imag > 0 for c in mixed])]
        mixed = [np.maximum(c.real, 0.0) + 1j * np.maximum(c.imag, 0.0) for c in mixed]

    y = np.empty((b_count, cfg.horizon, d_count))
    signs = np.empty((b_count, d_count, params.head_b1.data.size), dtype=bool)
    for b in range(b_count):
        for d in range(d_count):
            acc, coverage = np.zeros((lookback, e)), np.zeros(lookback)
            for i, s in enumerate(starts):
                full = np.zeros((bins, e), dtype=complex)
                full[index[b, i, :, d]] = mixed[i][b, :, d]
                acc[s:s + nfft] += np.fft.irfft(full, n=nfft, axis=0) * w[:, None]
                coverage[s:s + nfft] += w ** 2
            skip = lifted[b, :, d] + acc / coverage[:, None]  # (L, E)
            hidden = skip.reshape(-1) @ params.head_w1.data + params.head_b1.data
            if cfg.activation == "relu":
                signs[b, d] = hidden > 0
                hidden = np.maximum(hidden, 0.0)
            y[b, :, d] = hidden @ params.head_w2.data + params.head_b2.data
    return y, gap, routing + ([signs] if cfg.activation == "relu" else [])
