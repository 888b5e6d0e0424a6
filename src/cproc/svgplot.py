"""Dependency-free SVG rendering of ROC bands (staircase + shaded region +
diagonal reference). Output is deterministic: no timestamps, fixed float
formatting. A path maps its points to pixels with array arithmetic that
rounds as the scalar `_px` and `_py` do, and formats each distinct pixel
value once with `:.2f`. The file is written as UTF-8, as it declares,
whatever the locale."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .graphdata import format_floats

_PALETTE = ("#4477aa", "#ee6677", "#228833", "#ccbb44")
_SIZE = 480
_MARGIN = 56
# XML character data escapes, as xml.sax.saxutils.escape gives them (its import pulls in urllib: about 2 MB of RSS)
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _px(x: float) -> float:
    return _MARGIN + x * (_SIZE - 2 * _MARGIN)


def _py(y: float) -> float:
    return _SIZE - _MARGIN - y * (_SIZE - 2 * _MARGIN)


def _path(xs, ys) -> str:
    """Path data "M x0 y0 L x1 y1 ..." for the points in pixels ("" for
    none). `_px` and `_py` run on the arrays, whose `*` and `+` round as
    Python's floats do, and each distinct pixel value is formatted once."""
    xs = np.asarray(xs, dtype=float)
    text = format_floats(np.concatenate([_px(xs), _py(np.asarray(ys, dtype=float))]), "{:.2f}".format)
    return "M " + " L ".join(map(" ".join, zip(text[: xs.size], text[xs.size :]))) if xs.size else ""


def band_svg(
    bands: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    path: str | Path,
    title: str = "ROC bands",
    comment: str = "",
) -> None:
    """Render one or more bands, each given as
    (name, sen_lo, sen_up, spe_lo, spe_up) with rows ordered by ascending
    threshold; names and the title are XML-escaped."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
    ]
    if comment:
        parts.append(f"<!-- {re.sub('-(?=-)', '- ', comment)} -->")
    parts.append(f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>')
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SIZE - 2 * _MARGIN}" '
        f'height="{_SIZE - 2 * _MARGIN}" fill="none" stroke="black"/>'
    )
    for tick in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        parts.append(
            f'<line x1="{_px(tick):.2f}" y1="{_py(0) + 4:.2f}" x2="{_px(tick):.2f}" '
            f'y2="{_py(0):.2f}" stroke="black"/>'
            f'<text x="{_px(tick):.2f}" y="{_py(0) + 18:.2f}" font-size="11" '
            f'text-anchor="middle">{tick:.1f}</text>'
            f'<line x1="{_px(0) - 4:.2f}" y1="{_py(tick):.2f}" x2="{_px(0):.2f}" '
            f'y2="{_py(tick):.2f}" stroke="black"/>'
            f'<text x="{_px(0) - 8:.2f}" y="{_py(tick) + 4:.2f}" font-size="11" '
            f'text-anchor="end">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_px(0.5):.2f}" y="{_SIZE - 12}" font-size="13" text-anchor="middle">'
        "False positive rate</text>"
        f'<text x="14" y="{_py(0.5):.2f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {_py(0.5):.2f})">True positive rate</text>'
        f'<text x="{_px(0.5):.2f}" y="{_MARGIN - 16}" font-size="14" '
        f'text-anchor="middle">{title.translate(_XML_ESCAPES)}</text>'
    )
    parts.append(
        f'<path d="{_path([0, 1], [0, 1])}" stroke="#999999" stroke-dasharray="5,4" fill="none"/>'
    )
    for i, (name, sen_lo, sen_up, spe_lo, spe_up) in enumerate(bands):
        color = _PALETTE[i % len(_PALETTE)]
        # upper envelope (spe_lo, sen_up) out, lower envelope (spe_up, sen_lo) back
        xs = np.concatenate([spe_lo, spe_up[::-1]])
        ys = np.concatenate([sen_up, sen_lo[::-1]])
        parts.append(f'<path d="{_path(xs, ys)} Z" fill="{color}" fill-opacity="0.25" stroke="none"/>')
        parts.append(f'<path d="{_path(spe_lo, sen_up)}" stroke="{color}" fill="none"/>')
        parts.append(f'<path d="{_path(spe_up, sen_lo)}" stroke="{color}" fill="none"/>')
        ly = _MARGIN + 16 + 16 * i
        parts.append(
            f'<rect x="{_px(0.62):.2f}" y="{ly - 9}" width="12" height="12" fill="{color}" '
            f'fill-opacity="0.45"/><text x="{_px(0.62) + 16:.2f}" y="{ly + 1}" '
            f'font-size="11">{name.translate(_XML_ESCAPES)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
