"""Conditional GAN library for one-step synthesis of price time series.

Submodules:
    data       every CSV read and write, a columnar series, cleaning, windowing
    scaling    zero-mean/unit-variance standardization with exact inverse
    nn         dense layer + LSTM cell, hand-derived backward passes
    optim      stable BCE-with-logits and Adam
    gan        generator/discriminator, training loop, synthesis
    checkpoint single-file model container
    metrics    Pearson/Spearman/MAE/RMSE and daily volatility profiles
    gradcheck  finite-difference verification suite
    svgplot    deterministic SVG line plots
    errors     DataError, NumericError and check_scalar, the one scalar check
    cli        command-line entry point
"""

from .errors import DataError, NumericError

__all__ = ["DataError", "NumericError"]
__version__ = "0.1.0"
