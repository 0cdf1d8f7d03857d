"""No option that nothing sets.

Every defaulted parameter of a module-level function or a method in the
simulator's system layers must be passed by at least one call site
somewhere in the repository: by keyword or by position.  Storing an
attribute of the same name on some object does not count: a common
name (``thread.affinity``) would hide the option from the audit.  A
parameter that no code ever sets is a constant with extra steps -- each
one doubles a configuration space no workload, test or benchmark visits
-- so it belongs in a module-level name instead.  (Defaults of nested
functions bind locals for speed; they are not options.)

The match is by name, as a reader would grep for it: a call reaches
every function or method whose name equals the called name.
``Foo(...)`` reaches ``Foo.__init__`` (and, when ``Foo`` defines none,
its bases'), and ``super().__init__(...)`` reaches the ``__init__`` of
each base of the enclosing class.  That over-approximates who calls
what, and text in comments or strings that reads like a call counts as
one, so the audit can miss an unset option but never flags a set one.

Parsing every file of the repository costs ~0.6 s on a 2-vCPU host, so
the audit parses only what it needs: each ``def`` signature of the
system layers, and each call of a declared name, cut out of the source
at its brackets.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: The system layers the audit covers, relative to ``src/repro``.  The
#: model packages (apps, baselines, analyzer, workloads) describe the
#: modeled systems and are out of scope.
SYSTEM_LAYERS = ("sim", "core", "obs", "scale", "ckpt", "faults",
                 "runner", "cases", "report.py", "cli.py")

#: Where call sites are looked for, relative to the repository root.
CALLER_TREES = ("src", "tests", "benchmarks", "bench", "tools", "examples")

#: Defaulted parameters kept although no call site passes them.
EXCEPTIONS = {
    # IsolationRule.from_dict rebuilds a rule through ``cls(...)`` from
    # a checkpoint's dict, which the audit cannot see as a call.
    ("core/rules.py", "IsolationRule.__init__", "rule_type"),
    # A file path: the default names where the report lands.
    ("report.py", "write_report", "output_path"),
}

#: A ``def`` or ``class`` header, with its indentation.
_HEADER = re.compile(r"^([ \t]*)(?:async[ \t]+)?(def|class)[ \t]+(\w+)"
                     r"[ \t]*(\()?", re.M)

#: A name followed by an opening bracket, unless it is being defined.
_CALL = re.compile(r"(?<!def )(?<!class )\b(\w+)[ \t]*\(")

#: What the bracket matcher steps over: brackets, comments and strings.
_TOKEN = re.compile(r"[()\[\]{}]|#[^\n]*|\"\"\"[\s\S]*?\"\"\"|'''[\s\S]*?'''"
                    r"|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'")

#: Calls longer than this are not cut out (a false match in prose).
_MAX_CALL = 20_000


def _python_files(top):
    if top.endswith(".py"):
        yield top
        return
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename)


def _read(path):
    with open(path) as handle:
        return handle.read()


def _close(text, open_at):
    """Index just past the bracket matching the one at ``open_at``."""
    depth = 0
    for token in _TOKEN.finditer(text, open_at, open_at + _MAX_CALL):
        char = token.group()
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
            if depth == 0:
                return token.end()
    return None


def _headers(text):
    """``(start, indent, kind, name, parent, open_at)`` per header.

    ``parent`` is the index of the enclosing header (by indentation),
    or None at module level; ``open_at`` is -1 for a class without a
    base list.
    """
    headers, stack = [], []
    for match in _HEADER.finditer(text):
        indent = len(match.group(1).expandtabs())
        while stack and headers[stack[-1]][1] >= indent:
            stack.pop()
        parent = stack[-1] if stack else None
        headers.append((match.start(), indent, match.group(2),
                        match.group(3), parent, match.start(4)))
        stack.append(len(headers) - 1)
    return headers


def _is_static(text, start):
    """True when the ``def`` at ``start`` is decorated ``@staticmethod``."""
    while start > 0:
        begin = text.rfind("\n", 0, start - 1) + 1
        line = text[begin:start].strip()
        if not line.startswith("@"):
            return False
        if line == "@staticmethod":
            return True
        start = begin
    return False


def _defaulted(text, start, open_at, in_class):
    """(name, positional index or None) of each defaulted parameter.

    The positional index counts from the first argument a caller
    writes, so a method's ``self`` (or a classmethod's ``cls``) is
    skipped.
    """
    try:
        args = ast.parse("def f%s: pass" % text[open_at:_close(
            text, open_at)]).body[0].args
    except SyntaxError:
        return  # prose in a docstring that reads like a header
    positional = args.posonlyargs + args.args
    skip = 1 if in_class and not _is_static(text, start) else 0
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _declared():
    """Every defaulted parameter of the system layers.

    Yields ``(module, qualified name, called name, parameter,
    positional index)``; a constructor is called by its class name.
    """
    for layer in SYSTEM_LAYERS:
        for path in _python_files(os.path.join(SRC, layer)):
            module = os.path.relpath(path, SRC).replace(os.sep, "/")
            text = _read(path)
            headers = _headers(text)
            for start, _, kind, name, parent, open_at in headers:
                if kind != "def" or open_at < 0:
                    continue
                owner = None if parent is None else headers[parent]
                if owner is not None and owner[2] != "class":
                    continue  # a nested function
                called = qualname = name
                if owner is not None:
                    qualname = "%s.%s" % (owner[3], name)
                    if name == "__init__":
                        called = owner[3]
                for param, index in _defaulted(text, start, open_at,
                                               owner is not None):
                    yield module, qualname, called, param, index


def _parse_call(text, start, open_at, prefix=""):
    """The call whose name starts at ``start``, or None if it is not one.

    ``prefix`` is put in front of the cut-out text (a class header's base
    list parses as a call of it).
    """
    end = _close(text, open_at)
    if end is None:
        return None
    try:
        node = ast.parse(prefix + text[start:end], mode="eval").body
    except SyntaxError:
        return None
    return node if isinstance(node, ast.Call) else None


def _classes(texts, headers_of):
    """``{class name: (base names, defines __init__)}`` over ``texts``."""
    classes = {}
    for text, headers in zip(texts, headers_of):
        for start, _, kind, name, parent, open_at in headers:
            if kind == "class":
                node = None
                if open_at >= 0:
                    node = _parse_call(text, open_at, open_at, prefix="C")
                classes[name] = (() if node is None else tuple(
                    getattr(base, "id", None) or getattr(base, "attr", None)
                    for base in node.args), False)
            elif (name == "__init__" and parent is not None
                    and headers[parent][2] == "class"):
                owner = headers[parent][3]
                classes[owner] = (classes[owner][0], True)
    return classes


def _inherited_inits(classes):
    """Class -> the ancestors whose ``__init__`` builds it.

    Only for classes that define no ``__init__`` of their own: calling
    one runs the first ``__init__`` up its bases.
    """
    inherited = {}
    for name, (bases, has_init) in classes.items():
        if has_init:
            continue
        reached, todo = [], list(bases)
        while todo:
            base = todo.pop()
            if base is None or base in reached:
                continue
            reached.append(base)
            if base in classes and not classes[base][1]:
                todo.extend(classes[base][0])
        inherited[name] = tuple(reached)
    return inherited


class _Callers:
    """What the call sites pass, per called name."""

    def __init__(self, names, classes):
        self.classes = classes
        self.inherited = _inherited_inits(classes)
        self.names = set(names) | set(self.inherited)
        self.keywords = {}      # called name -> keyword names passed
        self.positions = {}     # called name -> most positional args

    def add(self, text, headers):
        for match in _CALL.finditer(text):
            name = match.group(1)
            if name == "__init__":
                self._init_call(text, match, headers)
            elif name in self.names:
                call = _parse_call(text, match.start(), match.end() - 1)
                for target in (name,) + self.inherited.get(name, ()):
                    self._record(target, call, 0)

    def passes(self, called, param, index):
        """True when some call of ``called`` passes ``param``."""
        return (param in self.keywords.get(called, ())
                or (index is not None
                    and self.positions.get(called, -1) > index))

    def _init_call(self, text, match, headers):
        call = _parse_call(text, match.start(), match.end() - 1)
        before = text[max(0, match.start() - 40):match.start()]
        if before.endswith("super()."):
            # super().__init__(...) reaches the enclosing class's bases.
            owner = _enclosing_class(text, match.start(), headers)
            for base in self.classes.get(owner, ((), False))[0]:
                self._record(base, call, 0)
            return
        base = re.search(r"(\w+)\.$", before)
        if base is not None:
            # Base.__init__(self, ...): the first argument is self.
            self._record(base.group(1), call, 1)

    def _record(self, name, call, skip):
        if name is None or call is None:
            return
        count = -skip
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                break
            count += 1
        known = self.keywords.get(name)
        if known is None:
            known = self.keywords[name] = set()
        known.update(keyword.arg for keyword in call.keywords)
        if count > self.positions.get(name, -1):
            self.positions[name] = count


def _enclosing_class(text, position, headers):
    """Name of the class whose body holds ``position`` (or None)."""
    line = text.rfind("\n", 0, position) + 1
    prefix = text[line:position].expandtabs()
    below = len(prefix) - len(prefix.lstrip())
    for start, indent, kind, name, _parent, _open in reversed(headers):
        if start < position and indent < below:
            if kind == "class":
                return name
            below = indent
    return None


def unset_options():
    """Defaulted system-layer parameters no call site passes."""
    declared = list(_declared())
    texts = [_read(path) for tree in CALLER_TREES
             for path in _python_files(os.path.join(ROOT, tree))]
    headers_of = [_headers(text) for text in texts]
    callers = _Callers({called for _, _, called, _, _ in declared},
                       _classes(texts, headers_of))
    for text, headers in zip(texts, headers_of):
        callers.add(text, headers)
    unset = []
    for module, qualname, called, param, index in declared:
        if (not callers.passes(called, param, index)
                and (module, qualname, param) not in EXCEPTIONS):
            unset.append("%s %s(%s)" % (module, qualname, param))
    return unset


def test_every_option_is_set_somewhere():
    unset = unset_options()
    assert not unset, (
        "%d defaulted parameter(s) that no call site passes; make each a "
        "module constant:\n  %s" % (len(unset), "\n  ".join(unset)))


def test_exceptions_are_still_real():
    declared = {(module, qualname, param)
                for module, qualname, _, param, _ in _declared()}
    assert EXCEPTIONS <= declared, sorted(EXCEPTIONS - declared)


def test_attribute_store_does_not_pass_a_parameter():
    text = ("def spawn_after(delay, fn, affinity=None):\n"
            "    pass\n"
            "\n"
            "thread.affinity = 3\n"
            "spawn_after(5, fn)\n")
    callers = _Callers({"spawn_after"}, {})
    callers.add(text, _headers(text))
    assert callers.passes("spawn_after", "fn", 1)
    assert not callers.passes("spawn_after", "affinity", 2)
