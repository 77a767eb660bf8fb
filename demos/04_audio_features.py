"""From WAV bytes to a 128-number summary of a recording.

Pipeline: decode (PCM or float WAV, stereo averaged to mono), resample to
22050 Hz with a windowed-sinc kernel, STFT with a periodic Hann window
(2048-point, hop 512, reflect-padded so a 10 s clip gives exactly 431
frames), mel filterbank (128 triangles, linear spacing below 1 kHz and
logarithmic above), log compression, and a mean over frames.

Run with --wav to featurize a real file; without it the script builds a
two-tone test signal and shows that the loudest mel bands sit where the
tones are.
"""

import argparse

import numpy as np

from scenevat.audio import (
    TARGET_RATE,
    decode_wav,
    extract_features,
    log_mel_mean,
    mel_center_frequencies,
    resample,
)


def two_tone_wav(freqs, seconds=10.0, rate=44100):
    import struct

    t = np.arange(int(seconds * rate)) / rate
    x = sum(0.4 * np.sin(2 * np.pi * f * t) for f in freqs)
    ints = np.round(x / len(freqs) * 32767).astype("<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(ints)) + b"WAVE"
    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    return (hdr + b"fmt " + struct.pack("<I", 16) + fmt
            + b"data" + struct.pack("<I", len(ints)) + ints)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--wav", default=None, help="featurize this file instead")
    args = ap.parse_args()

    if args.wav is not None:
        with open(args.wav, "rb") as fh:
            data = fh.read()
    else:
        data = two_tone_wav([440.0, 5000.0])

    clip = decode_wav(data)
    print(f"decoded {len(clip)} samples at {clip.rate} Hz "
          f"({clip.duration():.2f} s)")
    clip = resample(clip, TARGET_RATE)
    print(f"resampled to {clip.rate} Hz, {len(clip)} samples")

    feats = log_mel_mean(clip)
    centers = mel_center_frequencies()
    top = np.argsort(feats)[-4:][::-1]
    print(f"feature vector: {feats.shape[0]} dims, "
          f"range [{feats.min():.2f}, {feats.max():.2f}]")
    print("loudest bands:")
    for band in top:
        print(f"  band {band:3d} centred at {centers[band]:7.1f} Hz "
              f"-> {feats[band]:.2f}")

    # the one-call version used by the report pipeline
    again = extract_features(data)
    assert np.array_equal(again, feats)


if __name__ == "__main__":
    main()
