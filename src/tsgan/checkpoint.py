"""Single-file checkpoint container.

A checkpoint is a JSON document with a versioned header, the training
config, the fitted scaler (decimal text, 17 significant digits), the full
loss history, the RNG state, both Adam states, and every named parameter
block as base64-encoded little-endian float64 bytes. Serialization is
byte-deterministic for identical runs (sorted keys, fixed separators)
and atomic: a failed save leaves the previous file in place.

Version 2 stores the generator's LSTM as the single stacked block
`gen.lstm.W` (see nn.LstmCell); version 1 files, with eight per-gate
blocks, are rejected.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import (COUNT, FINITE, FINITE_POSITIVE, FRACTION, DataError,
                     check_scalar)
from .gan import Discriminator, Generator, LossHistory, TrainConfig, TrainedModel
from .nn import Layout
from .optim import AdamState
from .scaling import ScalerParams

FORMAT = "tsgan-checkpoint"
VERSION = 2
CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(TrainConfig))
ADAM_KEYS = {"lr": FINITE_POSITIVE, "beta1": FRACTION, "beta2": FRACTION,
             "epsilon": FINITE_POSITIVE, "t": COUNT}
LOSS_KEYS = tuple(f.name for f in dataclasses.fields(LossHistory))


def _is_number_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# the scaler's mean and stddev, which `ScalerParams.to_dict` writes as text
NUMBER_TEXT = (str, _is_number_text, "a number written as text")


def _encode_array(a: np.ndarray) -> dict:
    return {"shape": list(a.shape),
            "data": base64.b64encode(
                np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")}


def _encode_blocks(blocks: dict[str, np.ndarray]) -> dict:
    return {name: _encode_array(a) for name, a in blocks.items()}


def _encode_adam(state: AdamState, layout: Layout) -> dict:
    return {**{key: getattr(state, key) for key in ADAM_KEYS},
            "m": _encode_blocks(layout.views(state.m)),
            "v": _encode_blocks(layout.views(state.v))}


@contextmanager
def atomic_write(path):
    """Open `path` for writing text through a temporary file beside it.

    The file replaces `path` (os.replace) only when the block completes;
    if it raises, `path` keeps its old content and the temporary file is
    removed. This holds against a failed or killed process, not against
    power loss (nothing is fsynced).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save(path, model: TrainedModel) -> None:
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "config": dataclasses.asdict(model.config),
        "scaler": model.scaler.to_dict(),
        "epoch": model.epoch,
        "loss_history": vars(model.history),
        "rng_state": model.rng_state,
        "params": _encode_blocks({**model.generator.params(),
                                  **model.discriminator.params()}),
        "adam_g": _encode_adam(model.adam_g, model.generator.layout),
        "adam_d": _encode_adam(model.adam_d, model.discriminator.layout),
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _decode_blocks(what: str, obj: dict, layout: Layout) -> dict:
    """The blocks of `obj`, decoded: finite, and named and shaped exactly
    as in `layout`, which the config builds."""
    blocks = {name: np.frombuffer(base64.b64decode(a["data"]), dtype="<f8")
              .reshape(a["shape"]) for name, a in obj.items()}
    if set(blocks) != set(layout):
        raise DataError(f"{what}: blocks {sorted(blocks)} do not match the "
                        f"config's {sorted(layout)}")
    for name, shape in layout.items():
        if blocks[name].shape != shape:
            raise DataError(f"{what}: block {name!r} has shape "
                            f"{blocks[name].shape}, the config needs {shape}")
        if not np.isfinite(blocks[name]).all():
            raise DataError(f"{what}: block {name!r} is not finite")
    return blocks


def _history(hist: dict, epoch: int) -> LossHistory:
    """The loss history in `hist` if its lists hold finite numbers, one
    d and one g loss per epoch and per batch, the same number of batches
    in each of `epoch` epochs; else a DataError naming loss_history."""
    for key in LOSS_KEYS:
        if not isinstance(hist[key], list):
            raise DataError(f"loss_history.{key} must be a list, not "
                            f"{hist[key]!r}")
        what = f"a loss in loss_history.{key}"
        for loss in hist[key]:
            check_scalar(what, loss, FINITE)
    d, g = len(hist["d_epoch"]), len(hist["g_epoch"])
    if not d == g == epoch:
        raise DataError(f"loss_history holds {d} d_epoch and {g} g_epoch "
                        f"losses, not {epoch} each, one per epoch")
    d, g = len(hist["d_batch"]), len(hist["g_batch"])
    if d != g or (d % epoch if epoch else d):
        raise DataError(f"loss_history holds {d} d_batch and {g} g_batch "
                        f"losses, not one count that is a multiple of epoch "
                        f"{epoch}")
    return LossHistory(**{key: hist[key] for key in LOSS_KEYS})


def _model_from(doc: dict) -> TrainedModel:
    cfg = doc["config"]
    if set(cfg) != CONFIG_KEYS:
        raise DataError(f"config keys {sorted(cfg)} do not match "
                        f"{sorted(CONFIG_KEYS)}")
    config = TrainConfig(**cfg)
    stored = doc["scaler"]
    scaler = ScalerParams(**{
        key: float(check_scalar(f"scaler.{key}", stored[key], NUMBER_TEXT))
        for key in ("mean", "stddev")}, n_fitted=stored["n_fitted"])

    gen_layout = Generator.layout_for(config)
    disc_layout = Discriminator.layout_for(config)
    params = _decode_blocks("params", doc["params"],
                            Layout({**gen_layout, **disc_layout}))
    adam = {}
    for what, layout in (("adam_g", gen_layout), ("adam_d", disc_layout)):
        m, v = (layout.pack(_decode_blocks(f"{what}.{key}", doc[what][key],
                                           layout)) for key in ("m", "v"))
        adam[what] = AdamState(m, v, **{
            key: check_scalar(f"{what}.{key}", doc[what][key], rule)
            for key, rule in ADAM_KEYS.items()})

    rng_state = doc["rng_state"]
    bit_generator = np.random.PCG64()
    try:
        bit_generator.state = rng_state
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise DataError(f"rng_state is not a PCG64 state: {exc}") from None

    epoch = check_scalar("epoch", doc["epoch"], COUNT)
    return TrainedModel(generator=Generator(config, blocks=params),
                        discriminator=Discriminator(config, blocks=params),
                        adam_g=adam["adam_g"], adam_d=adam["adam_d"],
                        scaler=scaler, config=config,
                        epoch=epoch,
                        history=_history(doc["loss_history"], epoch),
                        rng_state=bit_generator.state)


def load(path) -> TrainedModel:
    """Read a checkpoint written by `save`.

    Raises DataError for anything else: a file that is not JSON, another
    format or version, a missing or malformed entry, an `rng_state` a
    PCG64 generator refuses, a scaler field ScalerParams refuses or a
    `mean` or `stddev` not written as text, an Adam `lr` or `epsilon` that
    is not a finite number > 0, a `beta1` or `beta2` outside [0, 1), an
    Adam `t` or an `epoch` that is not an integer >= 0 (each by
    errors.check_scalar),
    a `loss_history` list with an entry that is not a finite number or
    whose length disagrees with the epoch, or a parameter or Adam moment
    block that is not finite or whose name or shape disagrees with the
    networks its config builds.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # or too deeply nested
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
