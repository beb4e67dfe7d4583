"""Single-file checkpoint container.

A checkpoint is a JSON document with a versioned header, the training
config, the fitted scaler (decimal text, 17 significant digits), the full
loss history, the RNG state, both Adam states, and every named parameter
block as base64-encoded little-endian float64 bytes. Serialization is
byte-deterministic for identical runs (sorted keys, fixed separators).

Version 2 stores the generator's LSTM as the single stacked block
`gen.lstm.W` (see nn.LstmCell); version 1 files, with eight per-gate
blocks, are rejected.
"""

from __future__ import annotations

import base64
import dataclasses
import json

import numpy as np

from .errors import DataError
from .gan import Discriminator, Generator, LossHistory, TrainConfig, TrainedModel
from .optim import AdamState
from .scaling import ScalerParams

FORMAT = "tsgan-checkpoint"
VERSION = 2
CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(TrainConfig))


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")}


def _decode_array(obj: dict) -> np.ndarray:
    flat = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
    return flat.reshape(obj["shape"]).copy()


def _encode_blocks(blocks: dict[str, np.ndarray]) -> dict:
    return {name: _encode_array(a) for name, a in blocks.items()}


def _decode_blocks(obj: dict) -> dict[str, np.ndarray]:
    return {name: _decode_array(v) for name, v in obj.items()}


def _encode_adam(state: AdamState) -> dict:
    return {"lr": state.lr, "beta1": state.beta1, "beta2": state.beta2,
            "epsilon": state.epsilon, "t": state.t,
            "m": _encode_blocks(state.m), "v": _encode_blocks(state.v)}


def _decode_adam(obj: dict) -> AdamState:
    return AdamState(lr=obj["lr"], beta1=obj["beta1"], beta2=obj["beta2"],
                     epsilon=obj["epsilon"], t=obj["t"],
                     m=_decode_blocks(obj["m"]), v=_decode_blocks(obj["v"]))


def _sanitize(obj):
    """Recursively convert numpy scalars/arrays (RNG state) to JSON types."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.dtype.str, "values": obj.tolist()}
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _unsanitize(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["values"], dtype=obj["__ndarray__"])
        return {k: _unsanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_unsanitize(v) for v in obj]
    return obj


def save(path, model: TrainedModel) -> None:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "config": dataclasses.asdict(model.config),
        "scaler": {"mean": repr(model.scaler.mean),
                   "stddev": repr(model.scaler.stddev),
                   "n_fitted": model.scaler.n_fitted},
        "epoch": model.epoch,
        "loss_history": {"d_epoch": model.history.d_epoch,
                         "g_epoch": model.history.g_epoch,
                         "d_batch": model.history.d_batch,
                         "g_batch": model.history.g_batch},
        "rng_state": _sanitize(model.rng_state),
        "params": _encode_blocks({**model.generator.params(),
                                  **model.discriminator.params()}),
        "adam_g": _encode_adam(model.adam_g),
        "adam_d": _encode_adam(model.adam_d),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _check_blocks(what: str, blocks: dict, shapes: dict) -> None:
    """Block names and shapes must be exactly those the config builds."""
    if set(blocks) != set(shapes):
        raise DataError(f"{what}: blocks {sorted(blocks)} do not match the "
                        f"config's {sorted(shapes)}")
    for name, shape in shapes.items():
        if blocks[name].shape != shape:
            raise DataError(f"{what}: block {name!r} has shape "
                            f"{blocks[name].shape}, the config needs {shape}")


def _model_from(doc: dict) -> TrainedModel:
    cfg = doc["config"]
    if set(cfg) != CONFIG_KEYS:
        raise DataError(f"config keys {sorted(cfg)} do not match "
                        f"{sorted(CONFIG_KEYS)}")
    config = TrainConfig(**{**cfg, "disc_layers": tuple(cfg["disc_layers"])})
    scaler = ScalerParams(mean=float(doc["scaler"]["mean"]),
                          stddev=float(doc["scaler"]["stddev"]),
                          n_fitted=int(doc["scaler"]["n_fitted"]))

    rng = np.random.default_rng(0)  # placeholder; weights are overwritten
    gen = Generator(config, rng)
    disc = Discriminator(config, rng)
    gen_shapes = {name: p.shape for name, p in gen.params().items()}
    disc_shapes = {name: p.shape for name, p in disc.params().items()}
    params = _decode_blocks(doc["params"])
    _check_blocks("params", params, {**gen_shapes, **disc_shapes})
    for name, target in {**gen.params(), **disc.params()}.items():
        target[...] = params[name]
    adam_g = _decode_adam(doc["adam_g"])
    adam_d = _decode_adam(doc["adam_d"])
    for what, state, shapes in (("adam_g", adam_g, gen_shapes),
                                ("adam_d", adam_d, disc_shapes)):
        _check_blocks(f"{what}.m", state.m, shapes)
        _check_blocks(f"{what}.v", state.v, shapes)

    hist = doc["loss_history"]
    history = LossHistory(d_epoch=hist["d_epoch"], g_epoch=hist["g_epoch"],
                          d_batch=hist["d_batch"], g_batch=hist["g_batch"])
    return TrainedModel(generator=gen, discriminator=disc,
                        adam_g=adam_g, adam_d=adam_d,
                        scaler=scaler, config=config, epoch=doc["epoch"],
                        history=history,
                        rng_state=_unsanitize(doc["rng_state"]))


def load(path) -> TrainedModel:
    """Read a checkpoint written by `save`.

    Raises DataError for anything else: a file that is not JSON, another
    format or version, a missing or malformed entry, or a parameter or
    Adam moment block whose name or shape disagrees with the networks its
    config builds.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DataError(f"{path} is not a JSON file: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise DataError(f"{path} is not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version "
                        f"{doc.get('version')!r} (this build reads "
                        f"version {VERSION})")
    try:
        return _model_from(doc)
    except KeyError as exc:
        raise DataError(f"{path}: checkpoint lacks {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
