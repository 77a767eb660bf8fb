"""Self-contained audio front end.

WAV decoding (PCM 16/24/32-bit and float32, mono or stereo), polyphase
windowed-sinc resampling, a centered Hann STFT, a mel filterbank, and
log-mel features pooled to one vector per recording by a feature-wise mean
over time.

The resampler tabulates its Hann-windowed sinc once per output phase (L
phases for a rate ratio of M / L in lowest terms) and applies each phase to
a strided view of the zero-padded input.  Dividing each output by the sum of
its in-range taps keeps DC gain exactly 1 at the clip edges.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# Part of every feature-cache key; bump it whenever the front end's output
# can change for the same bytes and config.  2: polyphase resampler.
FRONTEND_VERSION = 2
# Zero crossings per side of the resampler's windowed-sinc kernel.
RESAMPLE_TAPS = 32


@dataclass(frozen=True)
class AudioClip:
    """Mono samples (nominally in [-1, 1]) at a fixed rate in Hz."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InputError(f"clip samples must be 1-D, got {samples.ndim}-D")
        if not self.rate > 0:
            raise InputError(f"sample rate must be positive, got {self.rate}")
        if not np.isfinite(samples).all():
            raise InputError("clip contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.shape[0]

    def duration(self) -> float:
        return len(self) / self.rate


@dataclass(frozen=True)
class AudioConfig:
    """STFT / mel parameters.  Defaults give 431 frames for a 10 s clip.

    The log is natural with an additive floor; set ``db_scale`` for
    10*log10 instead.  The mel scale is linear below 1 kHz and logarithmic
    above; ``htk_mel`` switches to the purely logarithmic HTK variant.
    """

    target_rate: int = 22050
    n_fft: int = 2048
    hop: int = 512
    n_mels: int = 128
    fmin: float = 0.0
    fmax: Optional[float] = None  # None -> target_rate / 2
    log_floor: float = 1e-10
    htk_mel: bool = False
    db_scale: bool = False

    def resolved_fmax(self) -> float:
        return self.target_rate / 2 if self.fmax is None else self.fmax

    def __post_init__(self):
        if self.target_rate <= 0:
            raise InputError(f"target_rate must be positive, got {self.target_rate}")
        if self.n_fft < 2:
            raise InputError(f"n_fft must be >= 2, got {self.n_fft}")
        if not 1 <= self.hop <= self.n_fft:
            raise InputError(f"hop={self.hop} must satisfy 1 <= hop <= n_fft")
        if self.n_mels < 1:
            raise InputError(f"n_mels must be >= 1, got {self.n_mels}")
        fmax = self.resolved_fmax()
        if not 0 <= self.fmin < fmax <= self.target_rate / 2:
            raise InputError(
                f"need 0 <= fmin < fmax <= rate/2, got fmin={self.fmin} fmax={fmax}"
            )
        if not self.log_floor > 0:
            raise InputError(f"log_floor must be positive, got {self.log_floor}")

    def cache_key(self) -> str:
        # Built from every field, so a field added later cannot be left out.
        # Floats are spelled as floats, and fmax as the value the filters use.
        doc = dataclasses.asdict(self) | {
            "frontend_version": FRONTEND_VERSION,
            "fmin": float(self.fmin),
            "fmax": float(self.resolved_fmax()),
            "log_floor": float(self.log_floor),
        }
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


# --------------------------------------------------------------------------
# WAV decoding


def decode_wav(data: bytes) -> AudioClip:
    """Decode a RIFF/WAVE byte string to a mono clip at its native rate.

    Supports PCM 16/24/32-bit and IEEE float32, 1 or 2 channels (averaged
    to mono).  Integer samples are scaled by 1 / 2^(bits-1).  Malformed or
    unsupported containers raise InputError naming the offending chunk.
    """
    if len(data) < 12 or data[:4] != b"RIFF":
        raise InputError("not a RIFF container (missing 'RIFF' chunk)")
    if data[8:12] != b"WAVE":
        raise InputError("RIFF form type is not 'WAVE'")

    fmt: Optional[dict] = None
    payload: Optional[bytes] = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = _parse_fmt(body)
        elif cid == b"data":
            if len(body) < size:
                raise InputError("truncated 'data' chunk")
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None:
        raise InputError("missing 'fmt ' chunk")
    if payload is None:
        raise InputError("missing 'data' chunk")

    channels = fmt["channels"]
    bits = fmt["bits"]
    block = channels * (bits // 8)
    if block == 0 or len(payload) % block:
        raise InputError(
            f"'data' chunk size {len(payload)} is not a whole number of "
            f"{block}-byte frames"
        )

    if fmt["format"] == WAVE_FORMAT_PCM:
        if bits not in (16, 24, 32):
            raise InputError(f"unsupported PCM bit depth {bits} in 'fmt ' chunk")
        # Little-endian int32 words one sample apart, behind 4 - width zero
        # bytes: word i ends where sample i does, so its high bytes are
        # sample i.  With the bytes below cleared, the word is the sample
        # times 2^(32-bits), so / 2^31 is the sample / 2^(bits-1) exactly.
        width = bits // 8
        words = np.ndarray(len(payload) // width, "<i4",
                           bytes(4 - width) + payload, strides=(width,))
        samples = (words & -(1 << (32 - bits))) / 2.0**31
    elif fmt["format"] == WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise InputError(f"unsupported float bit depth {bits} in 'fmt ' chunk")
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    else:
        raise InputError(
            f"unsupported codec 0x{fmt['format']:04x} in 'fmt ' chunk"
        )

    if channels == 1:
        mono = samples
    elif channels == 2:
        # The bits of reshape(-1, 2).mean(axis=1), without a reduction
        # over a length-2 axis, which took 3/4 of a 24-bit stereo decode.
        mono = (samples[0::2] + samples[1::2]) / 2
    else:
        raise InputError(f"unsupported channel count {channels} in 'fmt ' chunk")
    return AudioClip(mono, fmt["rate"])


def _parse_fmt(body: bytes) -> dict:
    if len(body) < 16:
        raise InputError("truncated 'fmt ' chunk")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        # Effective format is the first two bytes of the SubFormat GUID.
        if len(body) < 26:
            raise InputError("truncated extensible 'fmt ' chunk")
        (tag,) = struct.unpack_from("<H", body, 24)
    if rate <= 0:
        raise InputError(f"invalid sample rate {rate} in 'fmt ' chunk")
    return {"format": tag, "channels": channels, "rate": rate, "bits": bits}


# --------------------------------------------------------------------------
# Resampling


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited rate conversion by polyphase windowed-sinc interpolation.

    Output length is round(len * target / native).  The kernel is a
    Hann-windowed sinc with ``RESAMPLE_TAPS`` zero crossings per side,
    widened and scaled by the rate ratio when downsampling.  With native /
    target = M / L in lowest terms, output k sits at input position
    k * M / L, so its fractional offset depends only on the phase
    p = k mod L: the kernel is tabulated once per phase, from the exact
    offset (p * M mod L) / L.  The outputs of phase p read input windows
    that start at p * M // L and step by M, so each phase is one
    matrix-vector product over a strided view of the zero-padded input.
    Each output is divided by the sum of its in-range taps, the same
    product over a zero-padded 0/1 validity mask, which keeps DC gain
    exactly 1 even at the edges.
    """
    if target_rate <= 0:
        raise InputError(f"target rate must be positive, got {target_rate}")
    native = clip.rate
    if target_rate == native:
        return AudioClip(clip.samples.copy(), native)
    x = clip.samples
    n_in = len(x)
    n_out = (2 * n_in * target_rate + native) // (2 * native)  # round half up
    if n_in == 0 or n_out == 0:
        return AudioClip(np.zeros(0), target_rate)

    g = math.gcd(native, target_rate)
    step, n_phases = native // g, target_rate // g  # M, L
    cutoff = min(1.0, target_rate / native)  # fraction of the input Nyquist
    radius = int(np.ceil(RESAMPLE_TAPS / cutoff))
    width = 2 * radius + 1

    phase = np.arange(min(n_phases, n_out))
    frac = (phase * step % n_phases) / n_phases
    offset = np.arange(-radius, radius + 1)[np.newaxis, :] - frac[:, np.newaxis]
    h = cutoff * np.sinc(cutoff * offset)
    h *= np.where(
        np.abs(offset) <= radius,
        0.5 + 0.5 * np.cos(np.pi * offset / radius),
        0.0,
    )

    # Row 0 is the signal, row 1 its validity mask; window i of either covers
    # input samples i - radius .. i + radius, zero outside the clip.
    last = (n_out - 1) * step // n_phases  # window index of the last output
    padded = np.zeros((2, radius + max(n_in, last + radius + 1)))
    padded[0, radius : radius + n_in] = x
    padded[1, radius : radius + n_in] = 1.0
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)

    acc = np.empty((2, n_out))
    for p in range(len(h)):
        count = (n_out - 1 - p) // n_phases + 1
        rows = windows[:, p * step // n_phases :: step][:, :count]
        # einsum runs a SIMD loop on these strided rows; matmul cannot hand
        # them to BLAS (row stride < width) and is about 2.5x slower.
        acc[:, p::n_phases] = np.einsum("sij,j->si", rows, h[p])
    return AudioClip(acc[0] / acc[1], target_rate)


# --------------------------------------------------------------------------
# STFT and mel features


def stft_power(clip: AudioClip, cfg: AudioConfig = AudioConfig()) -> np.ndarray:
    """Power spectrogram, shape (frames, n_fft // 2 + 1).

    Frames are Hann-windowed and centered via reflect padding, one every
    ``hop`` samples; the frame count is 1 + len // hop.
    """
    if clip.rate != cfg.target_rate:
        raise InputError(
            f"clip rate {clip.rate} does not match configured rate "
            f"{cfg.target_rate}; resample first"
        )
    n = len(clip)
    if n == 0:
        raise InputError("cannot compute an STFT of an empty clip")
    pad = cfg.n_fft // 2
    padded = np.pad(clip.samples, pad, mode="reflect")
    n_frames = 1 + n // cfg.hop
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)
    frames = frames[:: cfg.hop][:n_frames]
    # The periodic (DFT-even) Hann window.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
    spec = np.fft.rfft(frames * window, axis=1)
    return np.abs(spec) ** 2


# Slaney's mel scale: linear below 1 kHz, logarithmic above.
_MEL_F_SP = 200.0 / 3.0
_MEL_MIN_LOG_HZ = 1000.0
_MEL_MIN_LOG_MEL = _MEL_MIN_LOG_HZ / _MEL_F_SP
_MEL_LOGSTEP = np.log(6.4) / 27.0


def hz_to_mel(freq, htk: bool = False) -> np.ndarray:
    f = np.asarray(freq, dtype=np.float64)
    if htk:
        return 2595.0 * np.log10(1.0 + f / 700.0)
    return np.where(
        f < _MEL_MIN_LOG_HZ,
        f / _MEL_F_SP,
        _MEL_MIN_LOG_MEL
        + np.log(np.maximum(f, _MEL_MIN_LOG_HZ) / _MEL_MIN_LOG_HZ) / _MEL_LOGSTEP,
    )


def mel_to_hz(mel, htk: bool = False) -> np.ndarray:
    m = np.asarray(mel, dtype=np.float64)
    if htk:
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    return np.where(
        m < _MEL_MIN_LOG_MEL,
        _MEL_F_SP * m,
        _MEL_MIN_LOG_HZ
        * np.exp(_MEL_LOGSTEP * (np.maximum(m, _MEL_MIN_LOG_MEL) - _MEL_MIN_LOG_MEL)),
    )


def _mel_breakpoints(cfg: AudioConfig) -> np.ndarray:
    mels = np.linspace(
        hz_to_mel(cfg.fmin, cfg.htk_mel),
        hz_to_mel(cfg.resolved_fmax(), cfg.htk_mel),
        cfg.n_mels + 2,
    )
    return mel_to_hz(mels, cfg.htk_mel)


def mel_center_frequencies(cfg: AudioConfig = AudioConfig()) -> np.ndarray:
    """Center frequency in Hz of each triangular filter."""
    return _mel_breakpoints(cfg)[1:-1]


@functools.lru_cache(maxsize=16)
def mel_filterbank(cfg: AudioConfig = AudioConfig()) -> np.ndarray:
    """Triangular filters, shape (n_mels, n_fft // 2 + 1).

    Centers are equally spaced on the mel scale between fmin and fmax; each
    filter is divided by its bandwidth in Hz so wide filters do not dominate.
    Raises if any filter covers no FFT bin.  The filters depend on the
    config only, so each config's array is built once, cached and shared:
    it is read-only.
    """
    pts = _mel_breakpoints(cfg)
    fft_freqs = np.arange(cfg.n_fft // 2 + 1) * (cfg.target_rate / cfg.n_fft)
    lower = pts[:-2]
    center = pts[1:-1]
    upper = pts[2:]
    up = (fft_freqs[np.newaxis, :] - lower[:, np.newaxis]) / np.maximum(
        center - lower, np.finfo(np.float64).tiny
    )[:, np.newaxis]
    down = (upper[:, np.newaxis] - fft_freqs[np.newaxis, :]) / np.maximum(
        upper - center, np.finfo(np.float64).tiny
    )[:, np.newaxis]
    weights = np.maximum(0.0, np.minimum(up, down))
    bandwidth = upper - lower
    weights /= bandwidth[:, np.newaxis]
    empty = np.flatnonzero((weights <= 0).all(axis=1))
    if empty.size:
        raise InputError(
            f"mel filter {int(empty[0])} covers no FFT bin; lower n_mels or "
            f"raise n_fft"
        )
    weights.flags.writeable = False
    return weights


def mel_power(clip: AudioClip, cfg: AudioConfig = AudioConfig()) -> np.ndarray:
    """Mel-band power per frame, shape (n_mels, frames).  Pre-log."""
    power = stft_power(clip, cfg)
    return mel_filterbank(cfg) @ power.T


def log_mel_mean(clip: AudioClip, cfg: AudioConfig = AudioConfig()) -> np.ndarray:
    """One feature vector per recording: log mel power averaged over frames."""
    mel = mel_power(clip, cfg)
    if cfg.db_scale:
        logged = 10.0 * np.log10(mel + cfg.log_floor)
    else:
        logged = np.log(mel + cfg.log_floor)
    return logged.mean(axis=1)


def extract_features(data: bytes, cfg: AudioConfig = AudioConfig()) -> np.ndarray:
    """Decode, resample to the configured rate, and pool to one vector."""
    clip = decode_wav(data)
    clip = resample(clip, cfg.target_rate)
    return log_mel_mean(clip, cfg)
