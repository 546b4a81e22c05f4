"""Deterministic tiling generator: scale a corpus app 10-100x.

The scaling benchmarks need programs one to two orders of magnitude
larger than the corpus models while keeping exact per-region ground
truth.  :func:`build_scaled` produces one by *tiling*: the base app's
source is tokenized (:mod:`repro.lang.lexer`) and every identifier --
class, method, field, variable, site label, loop label -- is suffixed
``__t{i}`` for tile ``i``, so the tiles are disjoint at every level the
analyses see (RTA dispatches by method name, the slice closure is
field-keyed; an unrenamed name anywhere would fuse the tiles into one
blob and defeat the scaling measurement).  Only ``this`` survives
renaming.  Per-tile ``entry`` statements are dropped; a generated
``ScaleMain.main`` drives every tile's entry method instead, and a
per-tile ``ScaleBridge__t{i}`` stores a fresh marker object into the
shared ``ScaleHub`` singleton, giving the program cross-module call
edges and a genuinely shared field without touching any tile's
region-local behaviour.

Everything is a pure function of ``(base, factor, variant)`` -- no
randomness, no timestamps -- so two builds of the same triple are
byte-identical and the generated ground truth (each tile's region
reports exactly the renamed findings of the base app) can be asserted
in tests and enforced by the benchmark harness.
"""

from repro.bench.apps import build_app, build_retention, retention_names
from repro.core.detector import DetectorConfig
from repro.core.regions import RegionSpec
from repro.lang import parse_program
from repro.lang.lexer import tokenize

#: Identifiers never renamed: ``this`` is the receiver keyword-in-all-
#: but-kind, ``Object`` is the validator's built-in root class;
#: everything else in a tile is private to that tile.
_KEEP = frozenset({"this", "Object"})


class ScaledApp:
    """One generated scaled program with per-tile ground truth."""

    def __init__(self, name, base, factor, variant, source, regions, truth):
        self.name = name
        self.base = base
        self.factor = factor
        self.variant = variant
        self.source = source
        self.program = parse_program(source)
        #: per-tile renamed :class:`RegionSpec`, tile order
        self.regions = regions
        #: {region text -> frozenset of expected leak site labels}
        self.truth = truth
        self.config = DetectorConfig()

    def __repr__(self):
        return "ScaledApp(%s x%d, %s)" % (self.base, self.factor, self.variant)


def _suffix(tile):
    return "__t%d" % tile


def _entry_sig(tokens):
    """``(class, method)`` of the first ``entry`` statement."""
    for i, tok in enumerate(tokens):
        if tok.kind == "KEYWORD" and tok.value == "entry":
            return tokens[i + 1].value, tokens[i + 3].value
    raise ValueError("base app source has no entry statement")


def _tile_tokens(tokens, suffix):
    """Rename one tile's token stream; drops ``entry`` statements."""
    out = []
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        if tok.kind == "EOF":
            break
        if tok.kind == "KEYWORD" and tok.value == "entry":
            while i < n and tokens[i].value != ";":
                i += 1
            i += 1
            continue
        if tok.kind == "IDENT" and tok.value not in _KEEP:
            out.append(tok.value + suffix)
        else:
            out.append(tok.value)
        i += 1
    return out


def _emit(parts):
    """Token list back to parseable (and diffable) source text."""
    lines = []
    current = []
    for part in parts:
        current.append(part)
        if part in (";", "{", "}"):
            lines.append(" ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines)


def _driver_source(entry_cls, entry_meth, factor):
    """``ScaleMain`` + hub + per-tile bridges (cross-module edges)."""
    body = []
    bridges = []
    body.append("hub = new ScaleHub @scale_hub ;")
    for tile in range(factor):
        sfx = _suffix(tile)
        body.append(
            "mark%d = call ScaleBridge%s . link%s ( hub ) @scale_link%s ;"
            % (tile, sfx, sfx, sfx)
        )
        body.append(
            "call %s%s . %s%s ( ) @scale_drive%s ;"
            % (entry_cls, sfx, entry_meth, sfx, sfx)
        )
        bridges.append(
            "class ScaleBridge%s { static method link%s ( hub ) { "
            "m = new ScaleMarker @scale_marker%s ; "
            "hub . bucket = m ; return m ; } }" % (sfx, sfx, sfx)
        )
    return "\n".join(
        [
            "entry ScaleMain.main ;",
            "class ScaleHub { field bucket ; }",
            "class ScaleMarker { field tag ; }",
            "class ScaleMain { static method main ( ) {",
            "\n".join(body),
            "} }",
        ]
        + bridges
    )


def _rename_region(region, suffix):
    cls, meth = region.method_sig.split(".", 1)
    sig = "%s%s.%s%s" % (cls, suffix, meth, suffix)
    label = getattr(region, "loop_label", None)
    if label is None:
        return RegionSpec(sig)
    return RegionSpec(sig, label + suffix)


def _build_base(base, variant):
    if base in retention_names():
        return build_retention(base, variant=variant)
    if variant != "leaky":
        raise KeyError(
            "app %r has no %r variant (only the retention corpus does)"
            % (base, variant)
        )
    return build_app(base)


def build_scaled(base="memocache", factor=10, variant="leaky"):
    """Tile ``base`` (default the memocache model) ``factor`` times.

    Returns a :class:`ScaledApp` whose ``regions`` list holds one
    renamed region per tile and whose ``truth`` maps each region's text
    to the renamed expected leak sites of the base app.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1 (got %d)" % factor)
    app = _build_base(base, variant)
    tokens = tokenize(app.source)
    entry_cls, entry_meth = _entry_sig(tokens)

    pieces = [_driver_source(entry_cls, entry_meth, factor)]
    regions = []
    truth = {}
    base_truth = getattr(app.truth, "regions", None) or {}
    base_entry = base_truth.get(app.region.text(), {"leaks": set()})
    for tile in range(factor):
        sfx = _suffix(tile)
        pieces.append(_emit(_tile_tokens(tokens, sfx)))
        region = _rename_region(app.region, sfx)
        regions.append(region)
        truth[region.text()] = frozenset(
            site + sfx for site in base_entry.get("leaks", ())
        )

    return ScaledApp(
        name="%s-x%d-%s" % (base, factor, variant),
        base=base,
        factor=factor,
        variant=variant,
        source="\n".join(pieces),
        regions=regions,
        truth=truth,
    )
