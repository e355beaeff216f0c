"""Deterministic synthetic video content.

The generator composes three layers, each with an adjustable weight so that
one knob maps to one difficulty axis of vbench's taxonomy:

* a smooth background (easy to predict, low entropy),
* a set of textured sprites translating with sub-pixel motion (the motion
  axis -- inter prediction must chase them),
* per-frame noise and optional scene cuts (the entropy axis -- noise is
  incompressible; cuts defeat inter prediction entirely).

Frames are generated at a *proxy* resolution (a fraction of the nominal
resolution) so the functional codec stays fast; all bitrate/throughput
accounting is done at the nominal resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.sim.rng import SeedLike, make_rng
from repro.video.frame import Frame, RawVideo, Resolution, resolution


@dataclass(frozen=True)
class ContentSpec:
    """Difficulty parameters for one synthetic title.

    All axes are 0..1-ish scalars; the defaults give a moderate clip.

    * ``motion`` -- sprite translation speed, in proxy pixels per frame.
    * ``detail`` -- amplitude of static spatial texture.
    * ``noise`` -- per-frame temporal noise sigma (incompressible energy).
    * ``scene_change_every`` -- frames between hard cuts (None = no cuts).
    * ``flash_probability`` -- chance a frame is globally brightened, which
      defeats naive inter prediction (the fades/flashes of Section 2.1).
    """

    name: str = "clip"
    resolution_name: str = "1080p"
    fps: float = 30.0
    motion: float = 1.0
    detail: float = 0.4
    noise: float = 1.5
    sprites: int = 6
    scene_change_every: Optional[int] = None
    flash_probability: float = 0.0

    def nominal(self) -> Resolution:
        return resolution(self.resolution_name)


#: Proxy plane height used for functional encoding; width follows 16:9.
DEFAULT_PROXY_HEIGHT = 72

#: Sprites are at least this many proxy pixels square and must fit in the
#: frame, so this is also the smallest usable proxy height.
MIN_PROXY_HEIGHT = 6


@dataclass
class _Sprite:
    texture: np.ndarray
    x: float
    y: float
    dx: float
    dy: float


class SyntheticVideo:
    """Deterministic frame source for a :class:`ContentSpec`."""

    def __init__(
        self,
        spec: ContentSpec,
        seed: SeedLike = 0,
        proxy_height: int = DEFAULT_PROXY_HEIGHT,
    ):
        if int(proxy_height) < MIN_PROXY_HEIGHT:
            raise ValueError(
                f"proxy_height must be >= {MIN_PROXY_HEIGHT} (the smallest"
                f" sprite), got {proxy_height}"
            )
        self.spec = spec
        self.proxy_height = int(proxy_height)
        self.proxy_width = int(round(self.proxy_height * 16 / 9))
        self._rng = make_rng(seed)
        self._background = self._make_background()
        self._sprites = [self._make_sprite() for _ in range(spec.sprites)]
        self._frame_index = 0

    def _make_background(self) -> np.ndarray:
        height, width = self.proxy_height, self.proxy_width
        yy, xx = np.mgrid[0:height, 0:width].astype(np.float32)
        gradient = 110.0 + 60.0 * (xx / width) + 30.0 * (yy / height)
        texture = self._rng.normal(0.0, 1.0, size=(height, width)).astype(np.float32)
        # Smooth the texture so "detail" is mid-frequency, not pure noise.
        texture = _blur3(texture)
        return gradient + 40.0 * self.spec.detail * texture

    def _make_sprite(self) -> _Sprite:
        side = max(MIN_PROXY_HEIGHT, self.proxy_height // 6)
        texture = self._rng.normal(0.0, 1.0, size=(side, side)).astype(np.float32)
        texture = _blur3(texture) * 55.0 * max(self.spec.detail, 0.2)
        angle = self._rng.uniform(0, 2 * np.pi)
        speed = self.spec.motion * self._rng.uniform(0.5, 1.5)
        return _Sprite(
            texture=texture,
            x=float(self._rng.uniform(0, self.proxy_width - side)),
            y=float(self._rng.uniform(0, self.proxy_height - side)),
            dx=float(np.cos(angle) * speed),
            dy=float(np.sin(angle) * speed),
        )

    def _advance_sprites(self) -> None:
        for sprite in self._sprites:
            sprite.x += sprite.dx
            sprite.y += sprite.dy
            side = sprite.texture.shape[0]
            if sprite.x < 0 or sprite.x > self.proxy_width - side:
                sprite.dx = -sprite.dx
                sprite.x = float(np.clip(sprite.x, 0, self.proxy_width - side))
            if sprite.y < 0 or sprite.y > self.proxy_height - side:
                sprite.dy = -sprite.dy
                sprite.y = float(np.clip(sprite.y, 0, self.proxy_height - side))

    def next_frame(self) -> Frame:
        spec = self.spec
        if (
            spec.scene_change_every
            and self._frame_index > 0
            and self._frame_index % spec.scene_change_every == 0
        ):
            self._background = self._make_background()
            self._sprites = [self._make_sprite() for _ in range(spec.sprites)]

        plane = self._background.copy()
        for sprite in self._sprites:
            _composite(plane, sprite)
        self._advance_sprites()

        if spec.flash_probability > 0 and self._rng.random() < spec.flash_probability:
            plane = plane + 45.0
        if spec.noise > 0:
            plane = plane + self._rng.normal(
                0.0, spec.noise, size=plane.shape
            ).astype(np.float32)

        frame = Frame(
            np.clip(plane, 0.0, 255.0).astype(np.float32),
            nominal=spec.nominal(),
            index=self._frame_index,
        )
        self._frame_index += 1
        return frame

    def frames(self, count: int) -> List[Frame]:
        return [self.next_frame() for _ in range(count)]

    def video(self, count: int) -> RawVideo:
        return RawVideo(
            self.frames(count), self.spec.nominal(), self.spec.fps, name=self.spec.name
        )


def _composite(plane: np.ndarray, sprite: _Sprite) -> None:
    """Add a sprite with bilinear sub-pixel placement (keeps motion smooth)."""
    side = sprite.texture.shape[0]
    x0, y0 = int(np.floor(sprite.x)), int(np.floor(sprite.y))
    fx, fy = sprite.x - x0, sprite.y - y0
    for oy, wy in ((0, 1 - fy), (1, fy)):
        for ox, wx in ((0, 1 - fx), (1, fx)):
            weight = wx * wy
            if weight <= 0:
                continue
            ys, xs = y0 + oy, x0 + ox
            ye, xe = min(ys + side, plane.shape[0]), min(xs + side, plane.shape[1])
            if ye <= ys or xe <= xs:
                continue
            plane[ys:ye, xs:xe] += weight * sprite.texture[: ye - ys, : xe - xs]


def _blur3(plane: np.ndarray) -> np.ndarray:
    """Cheap 3x3 box blur via shifted adds (no scipy dependency needed)."""
    padded = np.pad(plane, 1, mode="edge")
    out = np.zeros_like(plane)
    for dy in range(3):
        for dx in range(3):
            out += padded[dy : dy + plane.shape[0], dx : dx + plane.shape[1]]
    return out / 9.0
