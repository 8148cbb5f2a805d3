"""The failure branches of the factored certificate that no corpus input
reaches, one planted defect each, handed straight to the check with the
message it must raise.  As in ``tests/test_ledger.py``, a defect is a copy
of a genuine object made with ``dataclasses.replace``: a flag template with
two image faces of one flag swapped, an order spelled twice or one sign
flipped, or an octahedron component with a pair moved over top simplex 0.

Two branches of ``push_forward`` cannot be reached once the checks before
them pass, and keep their checks unplanted: "chain identity failed after
normalization" and "preimage counts are not constant".  Both are implied by
the per-component checks: once every component covers every top, with its
degree as each value and no cancelling flags, the normalized pushforward
over each top is the total degree, and so is the count of cells over it.

"pushes forward to zero" cannot follow a genuine template either.  Every
template sign and base orientation is +1 or -1, so a component's value over
a top it covers is nonzero unless its cells there cancel; its first covered
top then raises "cancelling flags", or fixes a nonzero degree (top 0), or
fails the coefficient check against degree 0 (a later top).  It is reached
here through a template whose live signs are all 0.
"""

from dataclasses import replace

import numpy as np
import pytest

from cyclecover import corpus
from cyclecover.certificate import check_well_defined, push_forward
from cyclecover.covering import build_component
from cyclecover.errors import DegreeNotConstantError, NotWellDefinedError
from cyclecover.permutahedron import flag_template
from cyclecover.pseudomanifold import ColoredPseudomanifold, face_ids


@pytest.fixture(scope="module")
def octahedron():
    """The octahedron's component (8 pairs, one over each triangle), the
    n = 2 template and the subdivision vertex table ``verify`` reads."""
    cp = ColoredPseudomanifold(*corpus.octahedron())
    return build_component(cp), flag_template(2), face_ids(cp.by_color)[0]


def test_swapped_image_faces_are_not_nested(octahedron):
    cover, template, vertex = octahedron
    assert template.spells[0] < 0 <= template.spells[1]  # flag 1 spells an order
    colors = template.colors.copy()
    colors[1, [1, 2]] = colors[1, [2, 1]]  # W_2 now holds W_1
    with pytest.raises(NotWellDefinedError) as e:
        check_well_defined(cover, replace(template, colors=colors), vertex)
    assert str(e.value) == "template flag 1 has non-nested image faces"


def test_an_order_spelled_twice_is_refused(octahedron):
    cover, template, vertex = octahedron
    spells = template.spells.copy()
    spells[0] = spells[1]  # flag 0 was degenerate
    with pytest.raises(DegreeNotConstantError) as e:
        push_forward(cover, replace(template, spells=spells), vertex,
                     oriented=True)
    assert str(e.value) == "template flags do not spell every color order once"


def test_one_flipped_sign_meets_the_base_cycle_with_both_signs(octahedron):
    cover, template, vertex = octahedron
    sign = template.sign.copy()
    sign[1] = -sign[1]
    with pytest.raises(DegreeNotConstantError) as e:
        push_forward(cover, replace(template, sign=sign), vertex, oriented=True)
    assert str(e.value) == ("the template meets the base cycle with both signs "
                            "over top simplex 0")


def test_cells_of_both_parities_over_a_top_cancel(octahedron):
    # pair 1 (g0 = 1) joins pair 0 (g0 = 0) over triangle 0: its two cells
    # and pair 0's two meet the base flag with opposite signs
    cover, template, vertex = octahedron
    assert cover.g0[:2].tolist() == [0, 1]
    sigma = cover.pair_sigma.copy()
    sigma[1] = 0
    with pytest.raises(DegreeNotConstantError) as e:
        push_forward(replace(cover, pair_sigma=sigma), template, vertex,
                     oriented=True)
    assert str(e.value) == "component 0 has cancelling flags over (0, 6, 18)"
    assert e.value.witness == (0, (0, 6, 18), 0)


def test_a_template_without_signs_pushes_forward_to_zero(octahedron):
    cover, template, vertex = octahedron
    sign = np.where(template.spells >= 0, 0, template.sign)
    with pytest.raises(DegreeNotConstantError) as e:
        push_forward(cover, replace(template, sign=sign), vertex, oriented=True)
    assert str(e.value) == "component 0 pushes forward to zero"
    assert e.value.witness == (0, None, 0)
