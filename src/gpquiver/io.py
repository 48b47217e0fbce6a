"""Text file formats for categories and representations, plus deterministic
JSON reports.

Category files are line-oriented UTF-8 with a `[category]` section (objects,
arrows, relations, field, length_cutoff) or a `[tensor]` section referencing
two category files. Relation paths are written in function-composition order:
`b*a` means "a then b". Rational literals match `-?[0-9]+(/[1-9][0-9]*)?`;
prime-field literals are decimal residues.

Representation files have a `[representation]` section referencing a category
file, one `dim` line per object, and one row-major `mat` line per arrow with
nonzero shape (rows separated by `;`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re

REPORT_SCHEMA = "gpquiver-report/1"
DEFAULT_CUTOFF = 16

RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?$")


class ParseError(Exception):
    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        at = "" if line_no is None else f":{line_no}"  # None: the file as a whole
        super().__init__(f"{path}{at}: {message}")


def effective_cutoff(*given) -> int:
    """The first of the given cutoffs that is set (not None), else
    DEFAULT_CUTOFF; a cutoff below 1 is refused."""
    cutoff = next((c for c in given if c is not None), DEFAULT_CUTOFF)
    if cutoff < 1:
        raise ValueError(f"cutoff must be at least 1, got {cutoff}")
    return cutoff


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield i, line


def _keyvals(path):
    """(line, section, key, value) per line, key None on a section header;
    keys other than name, arrow and relation appear at most once per file."""
    section = None
    seen = {}  # key -> its line
    for i, line in _lines(path):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            yield i, section, None, None
            continue
        if "=" not in line:
            raise ParseError(path, i, f"expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        words = " ".join(key.split())
        if words in seen:
            raise ParseError(path, i, f"repeated key {words!r}, first on line {seen[words]}")
        if words not in ("name", "arrow", "relation"):
            seen[words] = i
        yield i, section, key.strip(), val.strip()


def parse_scalar(field, text, path="<string>", line_no=None):
    text = text.strip()
    if not RATIONAL_RE.match(text):
        raise ParseError(path, line_no, f"bad scalar literal {text!r}")
    try:
        return field.parse(text)
    except Exception as exc:
        raise ParseError(path, line_no, f"bad scalar {text!r}: {exc}") from exc


def parse_path_expr(text, path="<string>", line_no=None):
    """`b*a` (function-composition order) -> application-order tuple (a, b)."""
    names = [p.strip() for p in text.split("*")]
    if any(not n for n in names):
        raise ParseError(path, line_no, f"empty arrow name in path {text!r}")
    return tuple(reversed(names))


def format_path(p) -> str:
    return "*".join(reversed(p))


def parse_relation_expr(field, text, path="<string>", line_no=None):
    from .category import Relation
    terms = []
    for chunk in text.split("+"):
        parts = chunk.strip().split()
        if len(parts) != 2:
            raise ParseError(path, line_no,
                             f"relation term must be 'coeff path', got {chunk.strip()!r}")
        coeff = parse_scalar(field, parts[0], path, line_no)
        terms.append((coeff, parse_path_expr(parts[1], path, line_no)))
    return Relation(tuple(terms))


def format_relation(field, rel) -> str:
    return " + ".join(f"{field.fmt(c)} {format_path(p)}" for c, p in rel.terms)


def check_field_override(name, label="field override") -> None:
    """Refuse a bad field override by its name, before any file is read."""
    if name is not None:
        from .linalg import field_from_name
        try:
            field_from_name(name)
        except ValueError as exc:
            raise ValueError(f"bad {label} {name!r}: {exc}") from None


def _referenced(path, line_no, ref) -> str:
    """The category file that line line_no of path references: ref joined to
    the directory of path as path was given, so an error in the referenced
    file is cited relative to the same place as path."""
    sub = os.path.join(os.path.dirname(path), ref)
    if not os.path.isfile(sub):
        raise ParseError(path, line_no, f"referenced category file {ref!r} not found")
    return sub


def _section_error(expected, section) -> str:
    """A section the expected kind of file does not have: another kind's, or none's."""
    if section in ("category", "tensor", "representation"):
        return f"expected a [{expected}] file, found [{section}]"
    return f"unknown section [{section}]"


def parse_category(path, cutoff_override=None, field_override=None):
    from .category import CategoryError, Quiver, build_category, tensor_category
    from .linalg import FieldMismatchError, field_from_name
    check_field_override(field_override)
    section = None
    headers = {}  # section -> line of its first header
    pending = {"objects": None, "arrows": [], "relations": [],
               "field": None, "cutoff": None, "tensor": {}}
    raw_relations = []
    for i, sec, key, val in _keyvals(path):
        if key is None:
            section = sec
            if section not in ("category", "tensor"):
                raise ParseError(path, i, _section_error("category", section))
            headers.setdefault(section, i)
            continue
        if section is None:
            raise ParseError(path, i, "content before any section header")
        if section == "tensor":
            if key not in ("left", "right"):
                raise ParseError(path, i, f"unknown tensor key {key!r}")
            pending["tensor"][key] = (i, val)
            continue
        if key == "name":
            continue
        if key == "objects":
            pending["objects"] = tuple(o.strip() for o in val.split(",") if o.strip())
            if len(set(pending["objects"])) != len(pending["objects"]):
                raise ParseError(path, i, "duplicate object names")
        elif key == "arrow":
            m = re.match(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$", val)
            if not m:
                raise ParseError(path, i, f"arrow must be 'name: src -> tgt', got {val!r}")
            pending["arrows"].append((i, m.groups()))
        elif key == "relation":
            raw_relations.append((i, val))
        elif key == "field":
            pending["field"] = (i, val)
        elif key == "length_cutoff":
            try:
                pending["cutoff"] = (i, effective_cutoff(int(val)))
            except ValueError:
                raise ParseError(path, i,
                                 f"length_cutoff must be an integer of at least 1, got {val!r}")
        else:
            raise ParseError(path, i, f"unknown category key {key!r}")

    if not headers:
        raise ParseError(path, None, "no [category] or [tensor] section")
    if pending["tensor"] or "category" not in headers:
        for side in ("left", "right"):
            if side not in pending["tensor"]:
                raise ParseError(path, headers["tensor"], f"tensor section missing {side!r}")
        parts = {side: parse_category(_referenced(path, i, ref), cutoff_override, field_override)
                 for side, (i, ref) in pending["tensor"].items()}
        try:
            cat = tensor_category(parts["left"], parts["right"])
        except (CategoryError, FieldMismatchError) as exc:
            raise ParseError(path, headers["tensor"], str(exc)) from exc
        cat.source_files = (path, *parts["left"].source_files, *parts["right"].source_files)
        return cat

    if pending["objects"] is None:
        raise ParseError(path, headers["category"], "category file has no objects line")
    if pending["field"] is None:
        raise ParseError(path, headers["category"], "category file has no field line")
    fi, fval = pending["field"]
    try:
        field = field_from_name(field_override or fval)
    except Exception as exc:
        raise ParseError(path, fi, f"bad field {fval!r}: {exc}") from exc
    cutoff_line, cutoff = pending["cutoff"] or (headers["category"], None)
    cutoff = effective_cutoff(cutoff_override, cutoff)
    arrow_map = {}
    for i, (name, s, t) in pending["arrows"]:
        if name in arrow_map:
            raise ParseError(path, i, f"duplicate arrow name {name!r}")
        for end in (s, t):
            if end not in pending["objects"]:
                raise ParseError(path, i, f"arrow {name} has unknown endpoint {end!r}")
        arrow_map[name] = (s, t)
    relations = []
    for i, val in raw_relations:
        rel = parse_relation_expr(field, val, path, i)
        unknown = sorted({a for _, p in rel.terms for a in p}.difference(arrow_map))
        if unknown:
            raise ParseError(path, i, f"unknown arrow {unknown[0]!r} in relation")
        try:
            rel.endpoints(arrow_map)
        except CategoryError as exc:
            raise ParseError(path, i, str(exc)) from exc
        relations.append(rel)
    quiver = Quiver(pending["objects"], tuple(a for _, a in pending["arrows"]))
    try:
        cat = build_category(quiver, relations, field, cutoff)
    except CategoryError as exc:
        at = cutoff_line if cutoff_override is None else headers["category"]
        raise ParseError(path, at, str(exc)) from exc
    cat.source_files = (path,)
    return cat


def parse_matrix(field, text, rows, cols, path="<string>", line_no=None):
    from .linalg import Matrix
    row_chunks = [r.strip() for r in text.split(";")] if text.strip() else []
    if rows == 0 or cols == 0:
        if any(row_chunks):
            raise ParseError(path, line_no, "matrix entries given for an empty shape")
        return Matrix.zeros(field, rows, cols)
    if len(row_chunks) != rows:
        raise ParseError(path, line_no,
                         f"expected {rows} matrix rows, got {len(row_chunks)}")
    data = []
    for chunk in row_chunks:
        entries = chunk.split()
        if len(entries) != cols:
            raise ParseError(path, line_no,
                             f"expected {cols} entries per row, got {len(entries)}")
        data.append([parse_scalar(field, e, path, line_no) for e in entries])
    return Matrix(field, data, rows, cols)


# The bound on sum_c dim F(c) + sum_a dim F(s) dim F(t) of a representation;
# `resolve` of one at the bound on 1 -> 2 (dims 499, 499) peaks near 130 MB.
MAX_REP_SIZE = 250_000


def parse_module(path, field_override=None, category=None):
    from .modules import Module
    check_field_override(field_override)
    section = None
    header = None
    cat_ref = None
    dims = {}
    raw_mats = []
    for i, sec, key, val in _keyvals(path):
        if key is None:
            section = sec
            if section != "representation":
                raise ParseError(path, i, _section_error("representation", section))
            header = header or i
            continue
        if section is None:
            raise ParseError(path, i, "content before any section header")
        if key == "name":
            continue
        if key == "category":
            cat_ref = (i, val)
        elif key.startswith("dim "):
            obj = key[4:].strip()
            try:
                dims[obj] = (i, int(val))
            except ValueError:
                raise ParseError(path, i, f"dimension must be an integer, got {val!r}")
            if dims[obj][1] < 0:
                raise ParseError(path, i, f"dimension must be at least 0, got {val!r}")
        elif key.startswith("mat "):
            raw_mats.append((i, key[4:].strip(), val))
        else:
            raise ParseError(path, i, f"unknown representation key {key!r}")
    if header is None:
        raise ParseError(path, None, "no [representation] section")
    if category is None:
        if cat_ref is None:
            raise ParseError(path, header, "representation file has no category line")
        category = parse_category(_referenced(path, *cat_ref), field_override=field_override)
    seen = {}  # dim lines in file order; an oversized one fails before any matrix
    for obj, (i, d) in dims.items():
        if obj not in category.objects:
            raise ParseError(path, i, f"unknown object {obj!r} in dim line")
        seen[obj] = d
        size = sum(seen.values()) + sum(seen.get(s, 0) * seen.get(t, 0)
                                        for s, t in category.arrow_map.values())
        if size > MAX_REP_SIZE:
            raise ParseError(path, i, f"representation too large: {size}, above the bound "
                             f"{MAX_REP_SIZE} on dimensions plus matrix entries")
    full_dims = {c: dims[c][1] if c in dims else 0 for c in category.objects}
    mats, mat_lines = {}, {}
    for i, a, val in raw_mats:
        if a not in category.arrow_map:
            raise ParseError(path, i, f"unknown arrow {a!r} in mat line")
        s, t = category.arrow_map[a]
        mats[a] = parse_matrix(category.field, val, full_dims[t], full_dims[s], path, i)
        mat_lines[a] = i
    m = Module(category, full_dims, mats, check=False)
    rel = m.violated_relation()
    if rel is not None:
        # an arrow without a mat line acts by zero, so some arrow of rel has one
        i = min(mat_lines[a] for _, p in rel.terms for a in p if a in mat_lines)
        raise ParseError(path, i, "representation invalid: relation "
                         f"{format_relation(category.field, rel)} violated")
    return m


# -- reports ----------------------------------------------------------------


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def build_report(command, input_paths, payload, cutoff=None, field=None) -> dict:
    """The report of a command; its inputs are keyed by their paths relative
    to the directory of the first one, the file named on the command line."""
    root = os.path.dirname(os.path.abspath(input_paths[0])) if input_paths else ""
    return {
        "schema": REPORT_SCHEMA,
        "command": command,
        "inputs": {os.path.relpath(os.path.abspath(p), root): file_digest(p)
                   for p in input_paths},
        "cutoff": cutoff,
        "field": field,
        "result": payload,
    }


def dumps_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
