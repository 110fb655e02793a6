"""Piecewise closed-form radial profiles of bodies of revolution.

A body of revolution in R^n (origin-symmetric, axis = last coordinate axis)
is determined by its radial function restricted to one quarter-meridian,
written as rho(t) for t = cos(angle from the axis) in [0, 1].  This module
represents such profiles as ordered lists of closed-form pieces (expression
trees over t), evaluates them together with exact derivatives via truncated
Taylor jets, and classifies the smoothness of the joints between pieces.

Transform outputs, such as the radial function of an intersection body (a
function of the sine of the vertical angle), are :class:`DerivedProfile`
objects backed by a jet source instead of pieces; a variable-convention flag
keeps the two parameterizations from being mixed up silently.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .calculus import sorted_unique
from .errors import DomainError, ProfileFormatError, SideRequired, SmoothnessError
from .jets import Jet, divide, exponential, power, square_root

COSINE = "cos"  # profile argument is the cosine of the vertical angle
SINE = "sin"    # profile argument is the sine of the vertical angle

# A point within JOINT_TOL of a breakpoint is on it (see near_joint).
JOINT_TOL = 1e-12
# Tolerance for continuity classes, relative to the value and derivatives at a joint.
DEFAULT_CLASS_TOL = 1e-9
# The deepest expression tree an ExprNode may root: a walk recurses once per
# node on a path, and a path of about 1000 would exhaust Python's stack.
MAX_EXPR_DEPTH = 256
_TOO_DEEP = f"expression nested deeper than {MAX_EXPR_DEPTH} levels"
# Uniform points (plus piece endpoints) scanned by RadialProfile.max_value.
_MAX_SCAN_POINTS = 10001
# Values of t at which validate_convexity samples the meridian.
_CONVEXITY_SAMPLES = 720

# Every operator with its arity, its value rule and its jet rule.  A jet
# rule's coefficient 0 is its value rule: jets.py owns the checks and the
# arithmetic of both.  "const" and "t" are leaves with a payload (a value,
# the variable) and no rule; "pow" passes its exponent to both its rules.
_OPERATORS = {"const": (0, None, None), "t": (0, None, None),
              "add": (2, operator.add, operator.add),
              "sub": (2, operator.sub, operator.sub),
              "mul": (2, operator.mul, operator.mul),
              "div": (2, divide, operator.truediv),
              "pow": (1, power, operator.pow),
              "sqrt": (1, square_root, Jet.sqrt),
              "exp": (1, exponential, Jet.exp),
              "neg": (1, operator.neg, operator.neg)}


@dataclass(frozen=True, eq=False)
class ExprNode:
    """Node of a closed-form expression tree over the single variable t.

    Supported operators: const, t, add, sub, mul, div, pow (rational
    exponent), sqrt, exp, neg.  A tree deeper than MAX_EXPR_DEPTH nodes is
    refused when its root is built, however it is built.

    Equality, hashing, copying, pickling and printing walk the tree with
    loops, not recursion, so they serve every tree that can be built.  Two
    trees are equal when their nodes have the same operators, exponents and
    constant bits (0.0 and -0.0 differ; NaN equals NaN).
    """

    op: str
    children: tuple = ()
    value: Optional[float] = None        # payload for "const"
    exponent: Optional[Fraction] = None  # payload for "pow"
    # Nodes on the longest path from here to a leaf, this one included.
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op not in _OPERATORS:
            raise ProfileFormatError(f"unknown operator {self.op!r}")
        arity = _OPERATORS[self.op][0]
        if len(self.children) != arity:
            raise ProfileFormatError(
                f"operator {self.op!r} takes {arity} children, got {len(self.children)}"
            )
        if self.op == "const" and self.value is None:
            raise ProfileFormatError("const node needs a value")
        if self.op == "pow" and self.exponent is None:
            raise ProfileFormatError("pow node needs a rational exponent")
        depth = 0  # of the deepest child; a loop is the fastest form here
        for child in self.children:
            if child.depth > depth:
                depth = child.depth
        if depth >= MAX_EXPR_DEPTH:
            raise ProfileFormatError(_TOO_DEEP)
        object.__setattr__(self, "depth", depth + 1)

    # ------------------------------------------------------------ evaluation
    # Two walks, one per rule column of _OPERATORS.  Each takes its one or
    # two children without building an argument list: a list per node made
    # the walk about 10% slower.

    def eval_value(self, t):
        """The expression's value at t, a float or an array of points, from
        the value rules alone: no jet is built."""
        children = self.children
        if not children:
            return self.value if self.op == "const" else t
        a = children[0].eval_value(t)
        rule = _OPERATORS[self.op][1]
        if len(children) == 2:
            return rule(a, children[1].eval_value(t))
        if self.op == "pow":
            return rule(a, self.exponent)
        return rule(a)

    def eval_jet(self, t, order: int) -> Jet:
        """Taylor jet of the expression at t (a float or an array of points),
        truncated at ``order``; at order 0 the values, wrapped in a jet."""
        if order == 0:
            return Jet((self.eval_value(t),))
        return self._jet(t, order)

    def _jet(self, t, order: int) -> Jet:
        children = self.children
        if not children:
            if self.op == "const":
                return Jet.constant(self.value, order)
            return Jet.variable(t, order)
        a = children[0]._jet(t, order)
        rule = _OPERATORS[self.op][2]
        if len(children) == 2:
            return rule(a, children[1]._jet(t, order))
        if self.op == "pow":
            return rule(a, self.exponent)
        return rule(a)

    # ------------------------------------------------- identity, without recursion

    def _postorder(self) -> list:
        """Every node of the tree, each after its children, in order."""
        nodes, stack = [], [self]
        while stack:  # root, last child, ..., first child: post-order reversed
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        nodes.reverse()
        return nodes

    def _label(self) -> tuple:
        """What equality compares of this node besides its children."""
        v = self.value
        if v is not None:
            v = (v, math.copysign(1.0, v)) if v == v else "nan"
        return self.op, v, self.exponent

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is not b:
                if a._label() != b._label():
                    return False
                pairs.extend(zip(a.children, b.children))
        return True

    def __hash__(self) -> int:
        return hash(tuple(node._label() for node in self._postorder()))

    def __reduce__(self):
        return _from_postorder, (tuple((node.op, node.value, node.exponent)
                                       for node in self._postorder()),)

    # ---------------------------------------------------------- serialization

    def to_prefix(self) -> str:
        """The tree in the notation :func:`parse_prefix` reads."""
        done = []  # the text of each finished subtree, in post-order
        for node in self._postorder():
            split = len(done) - len(node.children)
            parts = [node.op] + done[split:]
            del done[split:]
            if node.op == "pow":
                parts.append(_format_exponent(node.exponent))
            done.append(_format_number(node.value) if node.op == "const"
                        else "t" if node.op == "t" else f"({' '.join(parts)})")
        return done[0]

    def __repr__(self) -> str:
        return f"parse_prefix({self.to_prefix()!r})"


def _from_postorder(items) -> ExprNode:
    """The tree whose nodes' (op, value, exponent), each after its children,
    are ``items``: how a pickled or copied tree is rebuilt."""
    stack = []
    for op, value, exponent in items:
        split = len(stack) - _OPERATORS[op][0]
        children = tuple(stack[split:])
        del stack[split:]
        stack.append(ExprNode(op, children, value, exponent))
    (root,) = stack
    return root


def _format_number(x: float) -> str:
    # -0.0 takes repr, so the sign of a zero survives parse_prefix.
    if x == int(x) and abs(x) < 1e15 and math.copysign(1.0, x) > 0.0:
        return str(int(x))
    return repr(x)


def _format_exponent(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    if q.denominator > 10**6 and Fraction(float(q)) == q:
        return repr(float(q))
    return f"{q.numerator}/{q.denominator}"


# ------------------------------------------------------- expression helpers

def const(v: Union[int, float]) -> ExprNode:
    return ExprNode("const", value=float(v))


def var_t() -> ExprNode:
    return ExprNode("t")


def _wrap(x) -> ExprNode:
    return x if isinstance(x, ExprNode) else const(x)


def add(a, b) -> ExprNode:
    return ExprNode("add", (_wrap(a), _wrap(b)))


def sub(a, b) -> ExprNode:
    return ExprNode("sub", (_wrap(a), _wrap(b)))


def mul(a, b) -> ExprNode:
    return ExprNode("mul", (_wrap(a), _wrap(b)))


def div(a, b) -> ExprNode:
    return ExprNode("div", (_wrap(a), _wrap(b)))


def powr(a, exponent) -> ExprNode:
    if not isinstance(exponent, Fraction):
        exponent = Fraction(exponent)  # floats convert exactly (dyadic rationals)
    return ExprNode("pow", (_wrap(a),), exponent=exponent)


def sqrt(a) -> ExprNode:
    return ExprNode("sqrt", (_wrap(a),))


def exp_of(a) -> ExprNode:
    return ExprNode("exp", (_wrap(a),))


def neg(a) -> ExprNode:
    return ExprNode("neg", (_wrap(a),))


# ------------------------------------------------------------ prefix parser

def parse_prefix(text: str) -> ExprNode:
    """Parse a prefix-notation expression string such as

        (div 1 (mul 2 (sqrt (sub 1 (mul t t)))))

    Numbers may be integers, floats, or fractions like -1/2.  An n-ary add
    or mul builds a left-deep chain, and :class:`ExprNode` refuses a tree
    deeper than MAX_EXPR_DEPTH nodes.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse(level: int) -> ExprNode:
        """The next expression.  ``level`` counts the parentheses around it,
        which bounds the recursion here before any node is built."""
        nonlocal pos
        if level > MAX_EXPR_DEPTH:
            raise ProfileFormatError(_TOO_DEEP)
        if pos >= len(tokens):
            raise ProfileFormatError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens):
                raise ProfileFormatError("unexpected end of expression")
            op = tokens[pos]
            pos += 1
            if op == "pow":
                base = parse(level + 1)
                if pos >= len(tokens):
                    raise ProfileFormatError("pow needs an exponent")
                exponent = _parse_fraction(tokens[pos])
                pos += 1
                node = ExprNode("pow", (base,), exponent=exponent)
            elif op in ("add", "mul"):
                args = []
                while pos < len(tokens) and tokens[pos] != ")":
                    args.append(parse(level + 1))
                if len(args) < 2:
                    raise ProfileFormatError(f"{op} needs at least two arguments")
                node = args[0]
                for a in args[1:]:
                    node = ExprNode(op, (node, a))
            else:
                arity, rule, _ = _OPERATORS.get(op, (0, None, None))
                if rule is None:
                    raise ProfileFormatError(f"unknown operator {op!r}")
                node = ExprNode(op, tuple(parse(level + 1) for _ in range(arity)))
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ProfileFormatError(f"missing ')' after {op}")
            pos += 1
            return node
        if tok == ")":
            raise ProfileFormatError("unexpected ')'")
        if tok == "t":
            return ExprNode("t")
        return const(_parse_number(tok))

    node = parse(1)
    if pos != len(tokens):
        raise ProfileFormatError("trailing tokens after expression")
    return node


def _parse_fraction(tok: str) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/")
            return Fraction(int(num), int(den))
        return Fraction(float(tok))
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ProfileFormatError(f"bad number {tok!r}") from e


def _parse_number(tok: str) -> float:
    """A constant: a fraction a/b, or a finite float read as float() reads
    it (so -0.0 keeps its sign)."""
    if "/" in tok:
        return float(_parse_fraction(tok))
    try:
        x = float(tok)
    except ValueError as e:
        raise ProfileFormatError(f"bad number {tok!r}") from e
    if not math.isfinite(x):
        raise ProfileFormatError(f"bad number {tok!r}")
    return x


# ------------------------------------------------------------------- pieces

@dataclass(frozen=True)
class Piece:
    """One closed-form piece of a profile on a closed subinterval of [0, 1]."""

    interval: tuple
    expr: ExprNode

    def __post_init__(self):
        a, b = self.interval
        # A piece no wider than JOINT_TOL would put both its ends on one joint.
        if not (0.0 <= a and b <= 1.0 and b - a > JOINT_TOL):
            raise ValueError(f"piece interval [{a}, {b}] must lie inside [0, 1] "
                             f"and be wider than {JOINT_TOL:g}")


@dataclass
class Breakpoint:
    """Joint between two pieces, annotated with its continuity class."""

    location: float
    smoothness_class: str           # "C0" | "C1" | "C2+"
    first_derivative_jump: float    # right minus left
    # The one-sided jets (order min(2, max_order)) the class was read from.
    left_jet: Optional[Jet] = field(default=None, repr=False, compare=False)
    right_jet: Optional[Jet] = field(default=None, repr=False, compare=False)


_SMOOTH_TO = {"C0": 0, "C1": 1, "C2+": 2}


def near_joint(t: np.ndarray, joints: Sequence[float]) -> np.ndarray:
    """The (points x joints) mask of the points of t within JOINT_TOL of
    each joint: the one test of "this point is on that joint"."""
    return np.abs(t[:, None] - np.asarray(joints, dtype=float)[None, :]) <= JOINT_TOL


def _refuse_outside(t: np.ndarray, lo: float, hi: float) -> None:
    """The one domain rule of jets and eval_array: DomainError for a point
    of t more than JOINT_TOL outside [lo, hi], NaN included."""
    # Written as "not inside", so that NaN is outside too.
    outside = ~((t >= lo - JOINT_TOL) & (t <= hi + JOINT_TOL))
    if outside.any():
        raise DomainError(f"argument {t[outside][0]} outside [{lo}, {hi}]")


def _array_side(t: np.ndarray, lo: float, hi: float, breakpoints: Sequence[float],
                order: int, side: np.ndarray, classes: Callable) -> np.ndarray:
    """The side of its joints each point of ``t`` uses, from ``side``, one
    int8 code per point (-1 left, +1 right, 0 none).

    Returns the codes with every no-side point on a joint where the
    requested derivatives agree on the left side.  Raises DomainError for a
    point outside [lo, hi] or a side pointing out of the domain at an
    endpoint, and SideRequired for a no-side point on a non-smooth joint.
    ``classes()`` gives the joints' continuity classes, or None; it is
    called only for a no-side point on a joint at order > 0.
    """
    _refuse_outside(t, lo, hi)
    # Each endpoint is tested when a point has its side, the joints when a
    # point has none.
    sided = np.count_nonzero(side)
    if sided:
        left = side < 0
        lefts = np.count_nonzero(left)
        if lefts and np.count_nonzero(left & (np.abs(t - lo) <= JOINT_TOL)):
            raise DomainError(f"no left neighborhood at the lower endpoint {lo}")
        if lefts < sided and np.count_nonzero((side > 0) & (np.abs(t - hi) <= JOINT_TOL)):
            raise DomainError(f"no right neighborhood at the upper endpoint {hi}")
    if sided == t.size or not len(breakpoints):
        return side
    near = near_joint(t, breakpoints) & (side == 0)[:, None]
    hit = np.flatnonzero(near.any(axis=0))
    if not hit.size:
        return side
    if order > 0:
        known = classes()
        if known is None or any(order > _SMOOTH_TO[known[i]] for i in hit):
            raise SideRequired(f"t={breakpoints[hit[0]]} is a non-smooth joint; pass side="
                               f"'left' or side='right' for derivatives of order {order}")
    return np.where(near.any(axis=1), np.int8(-1), side)


class DerivedProfile:
    """A function on an interval, evaluated with derivatives through jets.

    Every profile is one.  A transform output (a quadrature-backed
    intersection profile, an inverse-Radon profile) is backed by
    ``jet_source(t, order, side)``, which receives a 1-D array of points and
    one resolved int8 side code per point (see :func:`_array_side`) and
    returns their array jet; :class:`RadialProfile` evaluates closed-form
    pieces instead and passes no source.  :meth:`_jet` is the one front for
    both: it checks the order and turns a float into a one-point array and
    the caller's side into codes.
    """

    def __init__(self, jet_source: Optional[Callable], breakpoints: Sequence[float],
                 domain: tuple = (0.0, 1.0), variable: str = COSINE,
                 max_order: int = 2, name: str = ""):
        self.jet_source = jet_source
        self.breakpoint_locations = [b for b in breakpoints
                                     if domain[0] < b < domain[1]]
        self.domain = domain
        self.variable = variable
        self.max_order = max_order
        self.name = name

    def _classes(self) -> Optional[list]:
        """The continuity classes of the joints, in order, when the profile
        knows them: a point on a joint smooth to the requested order needs
        no side.  A transform output does not; :func:`_array_side` asks only
        for a no-side point on a joint at order > 0."""
        return None

    def _jet(self, t, order: int, side=None) -> Jet:
        """Jet at t, a 1-D array of points or a float, on ``side``: "left",
        "right" or None for every point, or an int8 code per point (-1 left,
        +1 right, 0 none) in an array of the points' shape, which is all that
        :func:`_array_side` and the jet sources see; any other side raises
        ValueError.  A point's row has the bits of a walk of its own side.

        A float is resolved as a one-point array and gives a float jet with
        the bits of the one-point array jet.
        """
        if order > self.max_order:
            raise SmoothnessError(
                f"{self.name or 'derived profile'} provides derivatives up to "
                f"order {self.max_order}, requested {order}"
            )
        ts = t if isinstance(t, np.ndarray) else np.array([float(t)])
        if not isinstance(side, np.ndarray):
            if side not in (None, "left", "right"):
                raise ValueError(f"side must be 'left', 'right', or None, not {side!r}")
            side = np.full(ts.size, {"left": -1, None: 0, "right": 1}[side], np.int8)
        elif side.dtype != np.int8 or side.shape != ts.shape:
            raise ValueError(f"side must hold one int8 code per point, of shape {ts.shape}, "
                             f"not {side.dtype} of shape {side.shape}")
        elif np.count_nonzero((side < -1) | (side > 1)):
            raise ValueError(f"side codes must be -1, 0 or 1, "
                             f"not {side[(side < -1) | (side > 1)][0]}")
        use = _array_side(ts, self.domain[0], self.domain[1],
                          self.breakpoint_locations, order, side, self._classes)
        with np.errstate(all="ignore"):
            return self._evaluate(t, ts, order, use)

    def _evaluate(self, t, ts: np.ndarray, order: int, side) -> Jet:
        """The jet at t on the resolved ``side``; ``ts`` is t itself or, for
        a float, its one-point array."""
        jet = self.jet_source(ts, order, side)
        return jet if ts is t else jet.item(0)

    def eval_jet(self, t: float, order: int = 0, side: Optional[str] = None) -> tuple:
        """Value and derivatives (up to ``order``) at t."""
        if not 0 <= order <= self.max_order:
            raise ValueError(f"order must be between 0 and {self.max_order}")
        jet = self._jet(t, order, side)
        if not jet.is_finite():
            raise SmoothnessError(f"derivatives up to order {order} are unbounded at t={t}")
        return jet.derivs()[: order + 1]

    def value(self, t: float, side: Optional[str] = None) -> float:
        return self.eval_jet(t, 0, side)[0]

    def __repr__(self) -> str:
        return f"DerivedProfile({self.name!r}, variable={self.variable!r})"


class RadialProfile(DerivedProfile):
    """Piecewise closed-form function on [0, 1] with jet evaluation.

    The radial function of a body containing the origin, in the cosine
    convention.  Invariants enforced at construction: the pieces tile [0, 1]
    exactly, and each piece is finite and strictly positive on a 35-point
    grid of its closed interval, whose end values show the function
    continuous across joints.  No jet is walked: the joints' continuity
    classes (:attr:`breakpoints`) are computed on first read, which a
    singular joint refuses with SmoothnessError.
    """

    def __init__(self, pieces: Sequence[Piece], name: str = ""):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("profile needs at least one piece")
        if abs(pieces[0].interval[0] - 0.0) > JOINT_TOL or \
           abs(pieces[-1].interval[1] - 1.0) > JOINT_TOL:
            raise ValueError("pieces must cover [0, 1]")
        for p, q in zip(pieces, pieces[1:]):
            if abs(p.interval[1] - q.interval[0]) > JOINT_TOL:
                raise ValueError(
                    f"pieces must tile [0, 1]: gap between {p.interval} and {q.interval}"
                )
        super().__init__(None, [p.interval[1] for p in pieces[:-1]], max_order=3, name=name)
        self.pieces = pieces
        self._max_value = None
        # Piece i governs [b_i, b_(i+1)]; a point within JOINT_TOL of a
        # joint b belongs to the piece on the side asked for (right by default).
        self._left_of = [b + JOINT_TOL for b in self.breakpoint_locations]
        self._right_of = [b - JOINT_TOL for b in self.breakpoint_locations]
        ends = self._validate_values()
        # Each joint's one-sided values are its two pieces' end values there.
        for t0, left, right in zip(self.breakpoint_locations, ends[1::2], ends[2::2]):
            if abs(left - right) > 1e-9 * max(abs(left), abs(right)):
                raise ValueError(f"pieces disagree at t={t0}: {left} (left) vs {right} (right)")

    @cached_property
    def breakpoints(self) -> list:
        """Every joint's :class:`Breakpoint`, classified on first read and
        kept on the instance.  Of the library's routes only ``validate``
        reads them, and a derivative asked on a joint without a side."""
        return classify_breakpoints(self)

    def _classes(self) -> list:
        return [b.smoothness_class for b in self.breakpoints]

    # ------------------------------------------------------------ invariants

    def _validate_values(self) -> list:
        """Each piece's first and last value on its closed interval, in
        order, after checking that it is finite and strictly positive there."""
        # Ends and joints included: a profile that vanishes there certifies falsely.
        ends = []
        for p in self.pieces:
            a, b = p.interval
            grid = np.linspace(a, b, 35)
            try:  # refused: a vanishing base of a negative power, an exp past a float
                with np.errstate(all="ignore"):  # a piece without t gives one float
                    vals = np.broadcast_to(p.expr.eval_value(grid), grid.shape)
            except (SmoothnessError, OverflowError) as e:
                raise ValueError(f"piece on [{a}, {b}] has no finite value: {e}") from e
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"piece on [{a}, {b}] is not finite on its closed interval")
            if not np.all(vals > 0.0):
                raise ValueError(f"piece on [{a}, {b}] is not strictly positive")
            ends += vals[[0, -1]].tolist()
        return ends

    # ------------------------------------------------------------ evaluation

    def _locate(self, t: np.ndarray, lo: float, hi: float,
                side: Optional[np.ndarray] = None):
        """The pieces of the points of t, which lie in [lo, hi]: one int when
        one piece holds them all, else a (piece, integer rows) pair per
        occupied piece.  A jet walk passes its codes ``side``: a point coded
        left is above a left edge e when t > e, any other above a right edge
        e when t >= e; eval_array's values pass none and take the left edges.
        For all but NaN this is np.searchsorted's piece.  Only the edges
        between lo and hi are compared, and their counts skip empty pieces."""
        first = bisect_left(self._left_of, lo)
        if side is None:
            last = bisect_left(self._left_of, hi)
            above = [t > e for e in self._left_of[first:last]]
        else:  # lo's left piece to hi's right one
            last = bisect_right(self._right_of, hi)
            above = [np.where(side < 0, t > self._left_of[k], t >= self._right_of[k])
                     for k in range(first, last)]
        if first == last:
            return first
        counts = [t.size] + [np.count_nonzero(a) for a in above] + [0]
        # Piece first + j holds the points above edge j - 1 and not edge j.
        pieces = [j for j in range(len(counts) - 1) if counts[j] > counts[j + 1]]
        if len(pieces) == 1:
            return first + pieces[0]
        above = [True] + above + [False]
        return [(first + j, np.flatnonzero(above[j] ^ above[j + 1])) for j in pieces]

    def _evaluate(self, t, ts: np.ndarray, order: int, side: np.ndarray) -> Jet:
        if ts is t:
            lo, hi = (t.min(), t.max()) if t.size else (0.0, 0.0)
            return self._pieces_jet(t, self._locate(t, lo, hi, side), order)
        return self._walk(self._locate(ts, ts[0], ts[0], side), ts, order)

    def _walk(self, index: int, t: np.ndarray, order: Optional[int]):
        """Piece ``index``'s jet at t, or its values for order None; one
        point walks on its float (the bits of the one-point array walk in
        fewer numpy calls) and gives a float jet or value."""
        expr = self.pieces[index].expr
        point = float(t[0]) if t.size == 1 else t
        return expr.eval_value(point) if order is None else expr.eval_jet(point, order)

    def _pieces_jet(self, t: np.ndarray, located, order: int) -> Jet:
        """Array jet with each point evaluated on its piece, ``located`` as
        :meth:`_locate` returns it.

        Each occupied piece's expression is walked once, over its own points
        gathered with ``take``, and scattered back through their integer
        rows; an int walks it on t itself, with no gather and no scatter.
        Every coefficient is a fresh float array of t's shape.
        """
        if isinstance(located, list):
            return Jet.from_parts([(rows, self._walk(i, t.take(rows), order))
                                   for i, rows in located], t.size, order)
        return Jet(tuple(_fresh(c, t) for c in self._walk(located, t, order).coeffs))

    # perfbench's tracer wraps RadialProfile.__dict__["value"], so the name
    # is bound here too.
    value = DerivedProfile.value

    def eval_array(self, t: np.ndarray) -> np.ndarray:
        """Values at an array of points in [0, 1] (a joint takes its left
        piece); a point outside it by more than JOINT_TOL, NaN included,
        raises DomainError, as for the jets.

        Returns a fresh float array of t's shape.  When the least and the
        greatest point lie on one piece no point is compared or moved at all.
        The pieces are walked for their values alone: no jet is built.
        """
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        with np.errstate(all="ignore"):
            lo, hi = (flat.min(), flat.max()) if flat.size else (0.0, 0.0)
            # Extremes in [0, 1] put every point inside; NaN makes them NaN.
            if not 0.0 <= lo <= hi <= 1.0:
                _refuse_outside(flat, *self.domain)
            located = self._locate(flat, lo, hi)
            if isinstance(located, list):
                out = np.empty(flat.size)
                for i, rows in located:
                    out[rows] = self._walk(i, flat.take(rows), None)
            else:
                out = _fresh(self._walk(located, flat, None), flat)
        return out.reshape(t.shape)

    def max_value(self) -> float:
        """The largest value on the scan grid, scanned once: pieces never change."""
        if self._max_value is None:
            # Piece endpoints join the scan so kink maxima are hit exactly.
            ends = [e for p in self.pieces for e in p.interval]
            grid = sorted_unique(np.concatenate([np.linspace(0.0, 1.0, _MAX_SCAN_POINTS),
                                                 ends]))
            self._max_value = float(self.eval_array(grid).max())
        return self._max_value

    def scaled(self, lam: float) -> "RadialProfile":
        """Profile of the dilated body (rho multiplied by a positive constant)."""
        if lam <= 0:
            raise ValueError("scale factor must be positive")
        pieces = [Piece(p.interval, mul(lam, p.expr)) for p in self.pieces]
        suffix = f" * {lam:g}"
        return RadialProfile(pieces,
                             name=(self.name + suffix) if self.name else suffix.strip(" *"))

    # ---------------------------------------------------------- serialization

    def to_json_dict(self) -> dict:
        return {
            "pieces": [
                {"interval": [p.interval[0], p.interval[1]], "expr": p.expr.to_prefix()}
                for p in self.pieces
            ]
        }

    def __repr__(self) -> str:
        label = self.name or f"{len(self.pieces)} piece(s)"
        return f"RadialProfile({label}, variable={self.variable!r})"


@dataclass
class BodyOfRevolution:
    """Dimension plus radial profile: the geometric object under test."""

    dimension: int
    profile: RadialProfile
    family: Optional[str] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if int(self.dimension) != self.dimension or self.dimension < 3:
            raise ValueError("dimension must be an integer >= 3")
        self.dimension = int(self.dimension)

    def describe(self) -> str:
        bits = self.family or self.profile.name or "custom profile"
        if self.params:
            inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
            bits += f"({inner})"
        return f"{bits} in R^{self.dimension}"


def _fresh(c, t: np.ndarray) -> np.ndarray:
    """A walk's result c at the points t as a fresh float array of t's shape:
    a float walk and a constant give scalars, and the walk of "t" gives t."""
    if isinstance(c, np.ndarray) and c is not t:
        return c
    return np.broadcast_to(c, t.shape).copy()


# ----------------------------------------------------------- classification

def classify_breakpoints(profile: DerivedProfile, jet: Optional[Jet] = None) -> list:
    """Continuity class and derivative jumps of every interior joint, from
    the first rows of ``jet``, the array jet of a walk over all of them from
    the left and then from the right (:func:`two_sided`), made here when
    None; each :class:`Breakpoint` keeps its two one-sided jets."""
    locations = profile.breakpoint_locations
    k, order = len(locations), min(2, profile.max_order)
    if k and jet is None:
        jet = profile._jet(np.array(locations * 2, dtype=float), order, two_sided(k))
    return [_joint_class(t0, jet.item(i), jet.item(k + i), order)
            for i, t0 in enumerate(locations)]


def two_sided(joints: int, others: int = 0) -> np.ndarray:
    """The sides of a walk over ``joints`` joints from the left, the same
    joints from the right, then ``others`` points without a side."""
    return np.repeat(np.array([-1, 1, 0], dtype=np.int8), [joints, joints, others])


def _joint_class(t0: float, left_jet: Jet, right_jet: Jet, order: int) -> Breakpoint:
    left, right = left_jet.derivs(), right_jet.derivs()
    jump = [right[k] - left[k] if order >= k else float("nan") for k in range(3)]

    def jumps(k: int) -> bool:
        # t is dimensionless, so a derivative is judged against the value too.
        return order >= k and abs(jump[k]) > DEFAULT_CLASS_TOL * max(
            abs(left[0]), abs(left[k]), abs(right[k]))

    cls = "C0" if jumps(1) else "C1" if jumps(2) else "C2+"
    return Breakpoint(t0, cls, float(jump[1]), left_jet, right_jet)


# ---------------------------------------------------------------- convexity

@dataclass
class ConvexityReport:
    convex: bool
    samples: int
    worst_turn: float       # most negative normalized cross product
    violations: int


def validate_convexity(profile: RadialProfile) -> ConvexityReport:
    """Diagnostic check that the profile bounds a convex body of revolution.

    Samples the meridian curve (rho*sqrt(1-t^2), rho*t), closes it up by the
    two reflection symmetries, and tests whether the discrete turning has a
    single sign within tolerance.  Never raises for a non-convex profile --
    the transforms are well-defined for star bodies -- it only reports.
    """
    t = np.linspace(0.0, 1.0, _CONVEXITY_SAMPLES)
    rho = profile.eval_array(t)
    x = rho * np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    y = rho * t
    # Quarter from equator (t=0) to pole (t=1); assemble the right half
    # top-to-bottom, then mirror to the left half.
    right = np.stack([np.concatenate([x[::-1], x[1:]]),
                      np.concatenate([y[::-1], -y[1:]])], axis=1)
    left = right[::-1][1:-1] * np.array([-1.0, 1.0])
    pts = np.vstack([right, left])
    d = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]
    scale = np.max(np.abs(cross)) or 1.0
    turn = cross / scale
    # Orientation: the path above runs clockwise, so convex means turn <= 0.
    violations = int(np.sum(turn > 1e-7))
    worst = float(np.max(turn))
    return ConvexityReport(violations == 0, _CONVEXITY_SAMPLES, worst, violations)


# --------------------------------------------------------------------- JSON

def _is_number(v) -> bool:   # bool is an int subclass, not a number here
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def profile_from_json(obj: Union[str, dict]) -> RadialProfile:
    """Build a profile from the JSON description format.

    Accepts either {"pieces": [{"interval": [a, b], "expr": "<prefix>"}]} or
    {"builtin": "<family>", "params": {...}}, as a dict or a path to a file.
    """
    if isinstance(obj, str):
        with open(obj) as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ProfileFormatError("profile JSON must be an object")
    if "builtin" in obj:
        from . import families  # deferred: families builds on this module
        params = obj.get("params", {})
        if not (isinstance(params, dict) and all(map(_is_number, params.values()))):
            raise ProfileFormatError(f"'params' must be an object of numbers, got {params!r}")
        return families.instantiate(families.FamilySpec(obj["builtin"], params)).profile
    if "pieces" not in obj:
        raise ProfileFormatError("profile JSON needs 'pieces' or 'builtin'")
    if not isinstance(obj["pieces"], list):
        raise ProfileFormatError(f"'pieces' must be a list, got {obj['pieces']!r}")
    pieces = []
    for i, entry in enumerate(obj["pieces"]):
        try:
            a, b = entry["interval"]
            if not (_is_number(a) and _is_number(b)):
                raise ValueError("interval ends must be JSON numbers")
            pieces.append(Piece((float(a), float(b)), parse_prefix(entry["expr"])))
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
            raise ProfileFormatError(f"bad piece entry {i}: {e}") from e
    try:
        return RadialProfile(pieces)
    except ValueError as e:  # pieces that do not tile [0, 1], or not positive
        raise ProfileFormatError(str(e)) from e

