"""The pointwise action of a placement, for tests: the motion that
`Placement.compose` composes and the renderer's integer turns apply."""

from hatfam.exactnum import VecE, reflect_y_axis, rotate60
from hatfam.geometry import Placement


def apply(q: Placement, v: VecE) -> VecE:
    """v reflected across the y axis if q is reflected, then turned by
    q.rotation_k steps of 60 degrees, then moved by q's translation."""
    if q.reflected:
        v = reflect_y_axis(v)
    return rotate60(v, q.rotation_k) + q.translation
