"""Synthetic pose/illumination face-like corpus and the on-disk loader.

Images follow a multiplicative reflectance-times-lighting model: a per-identity
reflectance map of placed geometric primitives is projected to a yaw pose by a
horizontal affine compression with far-side self-occlusion, then multiplied by
a smooth lighting ramp and clamped to [0, 1]. Files are binary PGM/PPM named
id{I}_p{P}_l{L}.(pgm|ppm) plus a manifest CSV. Loaded pixels stay uint8;
network_input scales one batch at a time to the float64 the network runs on.
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass

import numpy as np

from .tensor import DTYPE

FILENAME_RE = re.compile(r"^id(\d+)_p(\d+)_l(\d+)\.(pgm|ppm)$")
# load_corpus reads every file of its directory whose name has one of these endings
CORPUS_SUFFIXES = (".pgm", ".ppm")
MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ["filename", "identity", "pose_id", "light_id", "yaw_deg"]
# the magic, width and height of an image header (_image_header says the rest);
# signs pass so that read_image can name an extent below 1, and 20 digits keep
# every number inside what int() converts
_IMAGE_HEADER_RE = re.compile(rb"(P[56])\n(-?\d{1,20}) (-?\d{1,20})\n")
# every light's intensity floor: a light is the direction of its ramp alone
AMBIENT = 0.2


@dataclass(frozen=True)
class IdentityTemplate:
    """Seed-derived reflectance map (h, w) in [0, 1] plus a channel tint."""

    reflectance: np.ndarray
    tint: np.ndarray


@dataclass
class LabeledSample:
    image: np.ndarray  # (h, w, c) uint8 as stored, or float in [0, 1]
    identity: int
    pose_id: int
    light_id: int


def default_pose_roster():
    """The yaws in degrees (negative to the left) of the 13 pose bins, from
    -90 to +90 in steps of 15; a corpus's pose id indexes this tuple."""
    return tuple(float(yaw) for yaw in range(-90, 91, 15))


def default_light_roster(count: int = 8):
    """Ramp directions in degrees of count evenly spaced lights; a light id indexes it."""
    return tuple(360.0 * i / count for i in range(count))


def _ellipse(reflectance, cy, cx, ry, rx, albedo):
    h, w = reflectance.shape
    yy = np.arange(h)[:, None]
    xx = np.arange(w)[None, :]
    mask = ((yy - cy) / max(ry, 1e-9)) ** 2 + ((xx - cx) / max(rx, 1e-9)) ** 2 <= 1.0
    reflectance[mask] = albedo


def _bar(reflectance, y0, y1, x0, x1, albedo):
    h, w = reflectance.shape
    y0, y1 = int(max(0, round(y0))), int(min(h, round(y1)))
    x0, x1 = int(max(0, round(x0))), int(min(w, round(x1)))
    reflectance[y0:y1, x0:x1] = albedo


def make_template(seed, identity, height, width, channels=1) -> IdentityTemplate:
    """Deterministic reflectance map for one identity.

    All primitive parameters (placement, size, albedo) come from a stream
    seeded by (seed, identity), so the same pair always yields bit-identical
    templates and distinct identities virtually surely differ.
    """
    rng = np.random.default_rng([int(seed), int(identity)])
    h, w = int(height), int(width)
    r = np.full((h, w), rng.uniform(0.05, 0.15), dtype=DTYPE)

    face_cy = rng.uniform(0.48, 0.56) * (h - 1)
    face_cx = rng.uniform(0.46, 0.54) * (w - 1)
    face_ry = rng.uniform(0.34, 0.44) * h
    face_rx = rng.uniform(0.27, 0.37) * w
    _ellipse(r, face_cy, face_cx, face_ry, face_rx, rng.uniform(0.55, 0.9))

    eye_dy = rng.uniform(0.30, 0.42) * face_ry
    eye_dx = rng.uniform(0.35, 0.55) * face_rx
    eye_r = rng.uniform(0.05, 0.09) * w
    for side, albedo in ((-1.0, rng.uniform(0.05, 0.35)), (1.0, rng.uniform(0.05, 0.35))):
        _ellipse(r, face_cy - eye_dy, face_cx + side * eye_dx, eye_r, eye_r, albedo)

    nose_w = rng.uniform(0.03, 0.07) * w
    nose_h = rng.uniform(0.12, 0.22) * h
    nose_a = rng.uniform(0.3, 0.95)
    _bar(r, face_cy - 0.1 * nose_h, face_cy + nose_h, face_cx - nose_w, face_cx + nose_w,
         nose_a)

    mouth_w = rng.uniform(0.15, 0.3) * w
    mouth_h = rng.uniform(0.03, 0.06) * h
    mouth_y = face_cy + rng.uniform(0.5, 0.68) * face_ry
    mouth_a = rng.uniform(0.05, 0.5)
    _bar(r, mouth_y - mouth_h, mouth_y + mouth_h, face_cx - mouth_w, face_cx + mouth_w,
         mouth_a)

    for _ in range(2):
        mark_cy = face_cy + rng.uniform(-0.6, 0.6) * face_ry
        mark_cx = face_cx + rng.uniform(-0.6, 0.6) * face_rx
        mark_r = rng.uniform(0.03, 0.06) * w
        _ellipse(r, mark_cy, mark_cx, mark_r, mark_r, rng.uniform(0.0, 1.0))

    np.clip(r, 0.0, 1.0, out=r)
    if channels == 3:
        tint = rng.uniform(0.6, 1.0, size=3).astype(DTYPE)
    elif channels == 1:
        tint = np.ones(1, dtype=DTYPE)
    else:
        raise ValueError("channels must be 1 or 3")
    return IdentityTemplate(r, tint)


def project(reflectance, yaw_deg) -> np.ndarray:
    """Pose a reflectance map: compress toward the profile, shift laterally,
    and hide the far half-face beyond 45 degrees of yaw.

    At yaw 0 the map is returned unchanged. The compression factor follows
    cos(yaw) with a 0.25 floor so profile views stay non-degenerate; beyond
    45 degrees the far half of the source map (past its vertical midline) is
    self-occluded. Sampling is bilinear with zeros outside the map.
    """
    r = np.asarray(reflectance, dtype=DTYPE)
    h, w = r.shape
    yaw = float(yaw_deg)
    rad = np.deg2rad(yaw)
    scale = max(np.cos(rad), 0.25)
    shift = 0.16 * w * np.sin(rad)
    cx = (w - 1) / 2.0

    xd = np.arange(w, dtype=DTYPE)
    xs = cx + (xd - cx - shift) / scale
    x0 = np.floor(xs).astype(np.int64)
    frac = xs - x0
    left_ok = (x0 >= 0) & (x0 <= w - 1)
    right_ok = (x0 + 1 >= 0) & (x0 + 1 <= w - 1)
    left = np.where(left_ok, np.clip(x0, 0, w - 1), 0)
    right = np.where(right_ok, np.clip(x0 + 1, 0, w - 1), 0)
    out = (r[:, left] * ((1.0 - frac) * left_ok)[None, :]
           + r[:, right] * (frac * right_ok)[None, :])

    if abs(yaw) > 45.0:
        if yaw > 0:
            out[:, xs > cx] = 0.0
        else:
            out[:, xs < cx] = 0.0
    return out


def light_field(direction_deg: float, height, width) -> np.ndarray:
    """Lighting intensity map in [AMBIENT, 1], strictly positive everywhere:
    a linear ramp toward direction_deg over the AMBIENT floor."""
    rad = np.deg2rad(direction_deg)
    c, s = np.cos(rad), np.sin(rad)
    u = np.linspace(-1.0, 1.0, width, dtype=DTYPE)[None, :]
    v = np.linspace(-1.0, 1.0, height, dtype=DTYPE)[:, None]
    # dividing by |c|+|s| pins the ramp inside [0, 1] for every direction
    ramp = 0.5 * (1.0 + (c * u + s * v) / (abs(c) + abs(s)))
    return AMBIENT + (1.0 - AMBIENT) * ramp


def render(template: IdentityTemplate, yaw_deg: float, light_deg: float) -> np.ndarray:
    """Image = clamp(project(reflectance, yaw) * light_field(light), 0, 1), per channel."""
    posed = project(template.reflectance, yaw_deg)
    h, w = posed.shape
    field = light_field(light_deg, h, w)
    image = (posed * field)[:, :, None] * template.tint[None, None, :]
    return np.clip(image, 0.0, 1.0)


def _image_header(magic, h, w) -> bytes:
    """The header write_image puts before an h x w raster: the one layout read_image accepts."""
    return magic + b"\n" + f"{w} {h}\n255\n".encode("ascii")


def write_image(path, pixels: np.ndarray):
    """Write uint8 pixels as binary PGM (h, w) or PPM (h, w, 3), maxval 255."""
    pixels = np.asarray(pixels)
    if pixels.dtype != np.uint8:
        raise ValueError("write_image expects uint8 pixels")
    if pixels.ndim == 2:
        magic = b"P5"
        h, w = pixels.shape
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
        h, w = pixels.shape[:2]
    else:
        raise ValueError(f"unsupported pixel shape {pixels.shape}")
    with open(path, "wb") as fh:
        fh.write(_image_header(magic, h, w))
        fh.write(pixels.tobytes())


def read_image(path) -> np.ndarray:
    """Read a file of write_image's layout into an (h, w, c) uint8 array.

    The file must be exactly _image_header's bytes (P5 or P6, a newline,
    "<w> <h>" in plain decimal, a newline, "255", a newline) and then h*w*c
    raster bytes; anything else raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    match = _IMAGE_HEADER_RE.match(data)
    if match is None:
        raise ValueError(f"{path}: bad image header: {data[:24]!r} does not start with "
                         "P5 or P6, then width and height on a line of their own")
    magic, w, h = match[1], int(match[2]), int(match[3])
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image extents {w}x{h} must be >= 1")
    header = _image_header(magic, h, w)
    if not data.startswith(header):
        raise ValueError(f"{path}: bad image header: expected {header!r}, "
                         f"got {data[:len(header)]!r}")
    channels = 1 if magic == b"P5" else 3
    expected = h * w * channels
    raster = data[len(header):]
    if len(raster) != expected:
        raise ValueError(f"{path}: raster holds {len(raster)} bytes, expected {expected}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w, channels).copy()


def network_input(images) -> np.ndarray:
    """The float64 network input for an image, or a batch as an array or a list.

    uint8 pixels are scaled to [0, 1]; float pixels, already in [0, 1], pass
    through without a copy when they are float64. A list of images that mix
    dtypes raises ValueError, as stacking would promote raw 0-255 values
    unscaled; so does any other dtype.
    """
    if isinstance(images, list):
        dtypes = {np.asarray(image).dtype for image in images}
        if len(dtypes) > 1:
            raise ValueError(f"images mix dtypes {', '.join(sorted(map(str, dtypes)))}")
    images = np.asarray(images)
    if images.dtype == np.uint8:
        return images.astype(DTYPE) / 255.0
    if np.issubdtype(images.dtype, np.floating):
        return images.astype(DTYPE, copy=False)
    raise ValueError(f"images must be uint8 or float, got dtype {images.dtype}")


def generate_corpus(out_dir, n_identities, n_lights=8, seed=0,
                    height=67, width=67, channels=1):
    """Render and write every (identity, pose, light) triple plus a manifest.

    The poses are default_pose_roster() and the lights default_light_roster(n_lights).
    Re-running with the same arguments reproduces byte-identical files.
    Returns the manifest rows as dicts. An out_dir that already holds a
    manifest or an image raises ValueError naming it before anything is
    written, since load_corpus would read the old images with the new.
    """
    poses = default_pose_roster()
    lights = default_light_roster(n_lights)
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            if name == MANIFEST_NAME or name.endswith(CORPUS_SUFFIXES):
                raise ValueError(f"{os.path.join(out_dir, name)} exists: write a new "
                                 "corpus into a directory that holds none")
    os.makedirs(out_dir, exist_ok=True)
    suffix = "pgm" if channels == 1 else "ppm"
    rows = []
    for identity in range(n_identities):
        template = make_template(seed, identity, height, width, channels)
        for pose_id, yaw in enumerate(poses):
            for light_id, light in enumerate(lights):
                image = render(template, yaw, light)
                pixels = np.rint(image * 255.0).astype(np.uint8)
                if channels == 1:
                    pixels = pixels[:, :, 0]
                filename = f"id{identity:03d}_p{pose_id:02d}_l{light_id:02d}.{suffix}"
                write_image(os.path.join(out_dir, filename), pixels)
                rows.append({
                    "filename": filename,
                    "identity": identity,
                    "pose_id": pose_id,
                    "light_id": light_id,
                    "yaw_deg": yaw,
                })
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return rows


def load_corpus(directory):
    """Load every PGM/PPM in lexicographic filename order.

    Filenames must follow id{I}_p{P}_l{L}.(pgm|ppm), and every image must
    have the first one's shape; anything else raises with the offending
    name. Images keep their stored uint8 pixels; see network_input.
    """
    names = sorted(n for n in os.listdir(directory) if n.endswith(CORPUS_SUFFIXES))
    samples = []
    for name in names:
        match = FILENAME_RE.match(name)
        if match is None:
            raise ValueError(
                f"file {name!r} does not follow the id<I>_p<P>_l<L>.(pgm|ppm) "
                "naming convention"
            )
        image = read_image(os.path.join(directory, name))
        if samples and image.shape != samples[0].image.shape:
            raise ValueError(f"file {name!r} has image shape {image.shape}, but the "
                             f"first file {names[0]!r} has {samples[0].image.shape}")
        samples.append(LabeledSample(image, int(match.group(1)),
                                     int(match.group(2)), int(match.group(3))))
    return samples


def parse_split(protocol):
    """(name, argument) of a split protocol, as split reads it.

    The argument is the fraction for "random" (default 0.9) and the set of
    held ids for the holdouts, or None where split picks the default ids
    from the samples. Raises ValueError naming the protocol if it does not
    parse.
    """
    name, _, arg = str(protocol).partition(":")
    try:
        if name == "random":
            fraction = float(arg) if arg else 0.9
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fraction {fraction} outside [0, 1]")
            return name, fraction
        if name in ("holdout-light", "holdout-pose"):
            return name, {int(tok) for tok in arg.split(",")} if arg else None
        raise ValueError(f"unknown split protocol {name!r}")
    except ValueError as err:  # float() and int() name the bad text, not the protocol
        raise ValueError(f"split {protocol!r}: {err}") from err


def split(samples, protocol, seed=0):
    """Partition samples into (train, test) under a named protocol.

    Protocols: "random:<fraction>" (seeded shuffle, default fraction 0.9),
    "holdout-light:<ids>" and "holdout-pose:<ids>" with comma-separated ids
    (defaults: the last light id present; the lowest and highest pose ids
    present, i.e. the two profile bins). The partition is disjoint and
    exhaustive; either side may be empty.
    """
    if not samples:
        raise ValueError("empty sample list")
    name, arg = parse_split(protocol)
    if name == "random":
        order = np.random.default_rng(seed).permutation(len(samples))
        n_train = int(round(arg * len(samples)))
        return ([samples[i] for i in order[:n_train]],
                [samples[i] for i in order[n_train:]])
    key = (lambda s: s.light_id) if name == "holdout-light" else (lambda s: s.pose_id)
    ids = [key(s) for s in samples]
    held = arg or ({max(ids)} if name == "holdout-light" else {min(ids), max(ids)})
    return ([s for s in samples if key(s) not in held],
            [s for s in samples if key(s) in held])
