#!/usr/bin/env python3
"""Repo-invariant lint for trusted-cvs: the checks generic tools can't do.

Rules (each violation prints `file:line: [rule] message`; exit 1 if any):

  raw-mutex      std::mutex / std::lock_guard / std::unique_lock /
                 std::condition_variable etc. are banned outside
                 src/util/mutex.h. Raw primitives are invisible to the
                 clang thread-safety analysis, so state they guard falls
                 out of the compile-time locking proof. Use util::Mutex,
                 util::MutexLock, util::CondVar (src/util/mutex.h).

  naked-new      `new` must be owned immediately (std::make_unique, or a
                 unique_ptr/shared_ptr constructor on the same or previous
                 line). A raw owning pointer is a leak waiting for an early
                 return. Suppress intentional cases with `lint:allow-new`.

  fault-registry every fault point consulted or armed in production code
                 (src/, tools/) must be a named kFault* constant, and every
                 `point=trigger` spec string anywhere in the tree (TCVS_FAULTS
                 examples included) must name a REGISTERED point — an armed
                 point with a typo'd name never fires, which silently turns a
                 fault-injection test into a no-op.

  header-hygiene every header starts with #pragma once (before any code)
                 and declares no top-level `using namespace`.

  metric-name    every metric registered through util::MetricsRegistry
                 (GetCounter/GetGauge/GetLatency) or timed with TCVS_SPAN
                 must use a literal lowercase dotted name
                 (`component.metric_name`, e.g. `rpc.serve.requests_total`);
                 computed names in production code are flagged because they
                 escape the snapshot inventory the same way an unregistered
                 fault point escapes the fault registry.

  promformat     Prometheus naming, enforced at the registration site:
                 every GetCounter literal ends in `_total`, and no
                 GetGauge/GetLatency/TCVS_SPAN literal ends in a reserved
                 suffix (_total, _sum, _count, _bucket, _info) — the /metrics
                 exposition derives series types from these suffixes, so a
                 mis-suffixed name makes scrapers mistype the series.
                 (Shares check_metric_name with tools/promcheck.py, which
                 validates the rendered exposition end-to-end.)

  admin-endpoint every path registered on the HTTP admin plane
                 (`Handle("/name", ...)` in src/net/http_admin.cc) must bump
                 a literal `http.admin.<name>.requests_total` counter and be
                 documented in ARCHITECTURE.md's endpoint table (a `/name`
                 row) — an endpoint outside the table is an API surface
                 operators can't discover, and one without its counter is
                 invisible in its own /metrics.

  profiling-metric
                 the profiling plane owns two reserved metric prefixes:
                 `lock.*` names must be contention histograms shaped
                 `lock.<mutex-name>.contention_us`, and `profile.*` names
                 must be counters shaped `profile.<name>_total`. Because the
                 lock histograms are minted at runtime from the
                 `util::Mutex{"..."}` construction literal (a computed name
                 the metric-name rule can't see), the mutex-name literal
                 itself is checked at the construction site: lowercase
                 dotted, at least two components — a malformed name would
                 mint a malformed series in /metrics with no literal
                 registration site to flag.

  rpc-method-metrics
                 every RpcType enumerator in src/rpc/protocol.h must have a
                 per-method client latency metric
                 (`rpc.client.<method>.latency_us`) and a per-method serve
                 counter (`rpc.serve.<method>.requests_total`) registered as
                 literals in src/rpc/remote.cc. A new RPC added without its
                 metric pair is invisible on /metrics and /varz (and so in
                 `tcvs stats` and `tcvs top`) — exactly the op you'll want
                 latencies for when it misbehaves.

  audit-event    security audit events are typed: every AuditEventKind
                 enumerator in src/util/audit.h must be emitted (referenced
                 as `AuditEventKind::kName`) somewhere outside
                 util/audit.{h,cc}, and production code must never smuggle a
                 kind as a string (`AuditEvent("...")` / `Emit("...")`) —
                 ad-hoc strings escape the per-kind counters and the
                 `tcvs events` inventory.

  campaign-fixture
                 every tests/campaign_fixtures/*.fixture is a well-formed
                 v1 campaign fixture: version header first, the required
                 keys present, `name` matching the filename, and an
                 even-length hex `schedule` — a malformed fixture makes
                 campaign_test fail far from the file that caused it.

  taint-boundary every `Deserialize` declared in a src/ header must either
                 return Result<util::Tainted<T>> (server-originated bytes
                 enter quarantine, util/untrusted.h) or carry a
                 `// taint-exempt: <reason>` comment justifying why the
                 input never crosses the server trust boundary. In the
                 trust-boundary headers themselves (rpc/protocol.h,
                 core/wire.h, mtree/vo.h) exemptions are banned outright:
                 everything they parse came off the wire.

  taint-escape   reinterpret_casts involving Tainted are banned outside
                 src/util/untrusted.h: the cast is the one way past the
                 quarantine the type system cannot see. The only sanctioned
                 way out of quarantine is TCVS_ENDORSE with a registered
                 verifier (Tainted<T> has no other accessor that yields a
                 mutable or movable payload).

Run from anywhere: paths are resolved relative to the repo root (the parent
of this script's directory). `tools/check.sh lint` runs it.
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from promcheck import check_metric_name  # noqa: E402  (shared naming rule)

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["src", "tools", "tests", "bench", "examples"]
HEADER_DIRS = ["src", "tools"]

RAW_MUTEX_ALLOWED = {Path("src/util/mutex.h")}
RAW_MUTEX_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable|condition_variable_any)\b"
)

NAKED_NEW_RE = re.compile(r"(?<![:\w])new\s+[A-Za-z_]")
NEW_OWNERSHIP_RE = re.compile(r"make_unique|make_shared|unique_ptr|shared_ptr")

FAULT_DEF_RE = re.compile(r"constexpr\s+char\s+kFault\w+\[\]\s*=\s*\"([^\"]+)\"")
# Production code must consult points via the named constants, never ad-hoc
# literals (tests/bench may probe unknown points deliberately).
FAULT_CALL_LITERAL_RE = re.compile(r"\b(?:ShouldFail|Arm|Disarm)\(\s*\"([^\"]+)\"")
# The TCVS_FAULTS grammar: dotted.point.name=trigger — wherever it appears
# (env strings in tests, doc examples), the point must exist. `prob` takes
# an optional per-point stream seed (`prob:P:SEED`) for bit-exact replays.
FAULT_SPEC_RE = re.compile(
    r"([a-z][a-z0-9_]*(?:\.[a-z0-9_]+){2,})="
    r"(?:always|oneshot|nth:\d+|prob:[0-9.]+(?::\d+)?)"
)

USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")

# Enumerator lines like `kTransact = 1,` inside the RpcType/AuditEventKind
# enum bodies (each enumerator carries an explicit wire-stable value).
ENUMERATOR_RE = re.compile(r"\bk([A-Z]\w*)\s*=\s*\d+\s*,")
AUDIT_STRING_KIND_RE = re.compile(r"\b(?:AuditEvent|Emit)\(\s*\"")


def camel_to_snake(name):
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def enum_body(text, enum_name):
    m = re.search(rf"enum\s+class\s+{enum_name}\b[^{{]*{{(.*?)}};", text,
                  re.DOTALL)
    return m.group(1) if m else ""

# Metric registration sites: a string literal directly inside the call, or
# nothing literal at all (a computed name). The registry itself passes names
# through, so it is exempt from the literal requirement.
METRIC_CALL_RE = re.compile(
    r"\b(GetCounter|GetGauge|GetLatency|TCVS_SPAN)\s*\(\s*(\"(?:[^\"\\]|\\.)*\")?"
)
METRIC_NAME_OK_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
METRIC_DYNAMIC_ALLOWED = {
    Path("src/util/metrics.h"),   # declarations + the TCVS_SPAN macro body
    Path("src/util/metrics.cc"),  # get-or-create definitions
    # Mints `lock.<name>.contention_us` from the Mutex construction literal;
    # that literal's shape is enforced by the profiling-metric rule instead.
    Path("src/util/profiler.cc"),
}

# Reserved profiling-plane prefixes (see the profiling-metric rule).
LOCK_METRIC_RE = re.compile(r"lock\.(?:[a-z0-9_]+\.)+contention_us")
PROFILE_METRIC_RE = re.compile(r"profile\.[a-z0-9_]+_total")
# A named util::Mutex: `Mutex mu_{"rpc.serve.execute"}` or `Mutex mu("...")`.
# The literal becomes the `lock.<name>.contention_us` histogram name.
NAMED_MUTEX_RE = re.compile(r"\bMutex\s+\w+\s*[{(]\s*\"((?:[^\"\\]|\\.)*)\"")
MUTEX_NAME_OK_RE = re.compile(r"[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+")


# The trust-boundary headers: everything they deserialize arrived off the
# wire, so quarantine is mandatory and taint-exempt markers are banned.
TAINT_STRICT_HEADERS = {
    Path("src/rpc/protocol.h"),
    Path("src/core/wire.h"),
    Path("src/mtree/vo.h"),
}
TAINT_EXEMPT_RE = re.compile(r"//\s*taint-exempt:\s*\S")
TAINT_ESCAPE_ALLOWED = {Path("src/util/untrusted.h")}
# A wire parser: `static ... Deserialize(` (the declaration may wrap).
SOURCE_DECL_RE = re.compile(r"\bstatic\b[^;{=]*?\b(Deserialize)\s*\(")


def source_files(dirs, suffixes):
    for d in dirs:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path


def strip_comments(lines):
    """Yields (lineno, code) with // and /* */ comment text blanked out.

    String literals are left intact (fault-point literals live in them);
    comment contents are blanked so commented-out code never trips a rule.
    """
    in_block = False
    for lineno, line in enumerate(lines, start=1):
        out = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            elif line[i] == '"':
                # Copy the string literal verbatim (handles \" escapes).
                j = i + 1
                while j < len(line) and line[j] != '"':
                    j += 2 if line[j] == "\\" else 1
                out.append(line[i : j + 1])
                i = j + 1
            else:
                out.append(line[i])
                i += 1
        yield lineno, "".join(out)


def main():
    violations = []

    def report(path, lineno, rule, message):
        violations.append(f"{path.relative_to(REPO)}:{lineno}: [{rule}] {message}")

    # Pass 1: collect the fault-point registry from all of src/.
    registry = set()
    for path in source_files(["src"], {".h", ".cc"}):
        registry.update(FAULT_DEF_RE.findall(path.read_text()))
    if not registry:
        print("lint.py: internal error: found no kFault* registry constants",
              file=sys.stderr)
        return 1

    # Pass 2: per-file rules.
    for path in source_files(SOURCE_DIRS, {".h", ".cc", ".cpp"}):
        rel = path.relative_to(REPO)
        lines = path.read_text().splitlines()
        code_lines = dict(strip_comments(lines))
        in_production = rel.parts[0] in ("src", "tools")

        prev_code = ""
        for lineno in sorted(code_lines):
            code = code_lines[lineno]
            raw = lines[lineno - 1]
            # For syntax rules, blank string literals too ("new size" in a
            # message is not an allocation).
            code_no_str = re.sub(r'"(?:[^"\\]|\\.)*"', '""', code)

            if RAW_MUTEX_RE.search(code_no_str) and rel not in RAW_MUTEX_ALLOWED:
                report(path, lineno, "raw-mutex",
                       "raw std:: synchronization primitive; use util::Mutex/"
                       "MutexLock/CondVar from util/mutex.h so the "
                       "thread-safety analysis can see the lock")

            if ("reinterpret_cast" in code_no_str
                    and "Tainted" in code_no_str
                    and rel not in TAINT_ESCAPE_ALLOWED):
                report(path, lineno, "taint-escape",
                       "reinterpret_cast involving Tainted<T> bypasses the "
                       "quarantine type layer; use TCVS_ENDORSE")

            if (NAKED_NEW_RE.search(code_no_str)
                    and "lint:allow-new" not in raw
                    and not NEW_OWNERSHIP_RE.search(prev_code + code)):
                report(path, lineno, "naked-new",
                       "unowned `new`; use std::make_unique (or mark an "
                       "intentional leak with lint:allow-new)")

            mutex_name = NAMED_MUTEX_RE.search(code)
            if (mutex_name
                    and not MUTEX_NAME_OK_RE.fullmatch(mutex_name.group(1))):
                report(path, lineno, "profiling-metric",
                       f'mutex name "{mutex_name.group(1)}" must be lowercase '
                       "dotted with at least two components (e.g. "
                       '"rpc.serve.execute"); it is minted verbatim into the '
                       "lock.<name>.contention_us histogram")

            if in_production:
                m = FAULT_CALL_LITERAL_RE.search(code)
                if m:
                    report(path, lineno, "fault-registry",
                           f'fault point "{m.group(1)}" consulted via string '
                           "literal in production code; define and use a "
                           "kFault* constant")
                if AUDIT_STRING_KIND_RE.search(code):
                    report(path, lineno, "audit-event",
                           "audit event constructed from a string; use a "
                           "typed util::AuditEventKind enumerator so the "
                           "event hits its per-kind counter and the "
                           "`tcvs events` inventory")
            prev_code = code_no_str

        # Metric-name hygiene. Calls wrap across lines (the formatter breaks
        # after the open paren), so scan the comment-stripped file as one
        # string and map match offsets back to line numbers.
        joined = "\n".join(code_lines.get(n, "") for n in range(1, len(lines) + 1))
        for m in METRIC_CALL_RE.finditer(joined):
            lineno = joined.count("\n", 0, m.start()) + 1
            if m.group(2) is None:
                if in_production and rel not in METRIC_DYNAMIC_ALLOWED:
                    report(path, lineno, "metric-name",
                           f"{m.group(1)} with a computed name in production "
                           "code; metrics must register literal names so the "
                           "snapshot inventory is complete")
                continue
            name = m.group(2)[1:-1]
            if not METRIC_NAME_OK_RE.match(name):
                report(path, lineno, "metric-name",
                       f'metric name "{name}" is not lowercase dotted '
                       "component.metric_name (e.g. rpc.serve.requests_total)")
                continue
            kind = {"GetCounter": "counter", "GetGauge": "gauge",
                    "GetLatency": "summary", "TCVS_SPAN": "summary"}
            err = check_metric_name(name, kind[m.group(1)])
            if err:
                report(path, lineno, "promformat", err)
            if (name.startswith("lock.")
                    and not LOCK_METRIC_RE.fullmatch(name)):
                report(path, lineno, "profiling-metric",
                       f'"{name}": the lock.* prefix is reserved for '
                       "contention histograms named "
                       "lock.<mutex-name>.contention_us")
            if (name.startswith("profile.")
                    and not (m.group(1) == "GetCounter"
                             and PROFILE_METRIC_RE.fullmatch(name))):
                report(path, lineno, "profiling-metric",
                       f'"{name}": the profile.* prefix is reserved for '
                       "profiling-plane counters named profile.<name>_total")

        # Fault-spec strings may sit in comments (doc examples) — check the
        # raw text, not the comment-stripped one: a typo'd example misleads
        # exactly like a typo'd env var.
        for lineno, raw in enumerate(lines, start=1):
            for point in FAULT_SPEC_RE.findall(raw):
                if point not in registry:
                    report(path, lineno, "fault-registry",
                           f'fault spec names unregistered point "{point}" '
                           f"(known: {', '.join(sorted(registry))})")

    # Pass 3: header hygiene.
    for path in source_files(HEADER_DIRS, {".h"}):
        lines = path.read_text().splitlines()
        code_lines = dict(strip_comments(lines))
        first_code = next(
            ((n, c) for n, c in sorted(code_lines.items()) if c.strip()), None)
        if first_code is None:
            report(path, 1, "header-hygiene", "empty header")
        elif first_code[1].strip() != "#pragma once":
            report(path, first_code[0], "header-hygiene",
                   "first declaration must be #pragma once")
        for lineno, code in sorted(code_lines.items()):
            if USING_NAMESPACE_RE.search(code):
                report(path, lineno, "header-hygiene",
                       "`using namespace` in a header leaks into every "
                       "includer")

    # Pass 4: RPC-method metric coverage. The enum is the source of truth;
    # the metric pair must exist as literals in the transport.
    protocol = REPO / "src/rpc/protocol.h"
    remote = REPO / "src/rpc/remote.cc"
    rpc_methods = ENUMERATOR_RE.findall(enum_body(protocol.read_text(),
                                                  "RpcType"))
    if not rpc_methods:
        print("lint.py: internal error: found no RpcType enumerators",
              file=sys.stderr)
        return 1
    remote_text = remote.read_text()
    for method in rpc_methods:
        snake = camel_to_snake(method)
        for metric in (f"rpc.client.{snake}.latency_us",
                       f"rpc.serve.{snake}.requests_total"):
            if f'"{metric}"' not in remote_text:
                report(protocol, 1, "rpc-method-metrics",
                       f"RpcType::k{method} has no \"{metric}\" literal in "
                       f"{remote.relative_to(REPO)}; every RPC method needs "
                       "its per-method latency + request-count pair")

    # Pass 5: audit-event kind coverage. Every declared kind must be emitted
    # through the typed enum somewhere outside the audit module itself —
    # a kind nothing raises is inventory that can never appear in
    # `tcvs events`, usually a sign the emission site regressed.
    audit_header = REPO / "src/util/audit.h"
    audit_kinds = ENUMERATOR_RE.findall(enum_body(audit_header.read_text(),
                                                  "AuditEventKind"))
    if not audit_kinds:
        print("lint.py: internal error: found no AuditEventKind enumerators",
              file=sys.stderr)
        return 1
    audit_module = {Path("src/util/audit.h"), Path("src/util/audit.cc")}
    references = ""
    for path in source_files(["src", "tools"], {".h", ".cc"}):
        if path.relative_to(REPO) in audit_module:
            continue
        references += path.read_text()
    for kind in audit_kinds:
        if f"AuditEventKind::k{kind}" not in references:
            report(audit_header, 1, "audit-event",
                   f"AuditEventKind::k{kind} is declared but never emitted "
                   "outside util/audit.{h,cc}; wire up an emission site or "
                   "retire the kind")

    # Pass 6: campaign-fixture hygiene. The checked-in adversarial corpus is
    # replayed verbatim by campaign_test; catch malformed fixtures here with
    # a file:line message instead of a distant deserialization failure.
    fixture_dir = REPO / "tests/campaign_fixtures"
    required_keys = ("name", "protocol", "expect_detected", "expect_escape",
                     "schedule")
    for path in sorted(fixture_dir.glob("*.fixture")):
        lines = path.read_text().splitlines()
        if not lines or lines[0].strip() != "# tcvs-campaign-fixture v1":
            report(path, 1, "campaign-fixture",
                   'first line must be "# tcvs-campaign-fixture v1"')
            continue
        kv = {}
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            key, sep, value = line.partition(":")
            if not sep:
                report(path, lineno, "campaign-fixture",
                       f'not a "key: value" line: "{line}"')
                continue
            kv[key.strip()] = (lineno, value.strip())
        for key in required_keys:
            if key not in kv:
                report(path, 1, "campaign-fixture", f'missing key "{key}"')
        if "name" in kv and kv["name"][1] != path.stem:
            report(path, kv["name"][0], "campaign-fixture",
                   f'name "{kv["name"][1]}" does not match filename stem '
                   f'"{path.stem}"')
        for key in ("expect_detected", "expect_escape"):
            if key in kv and kv[key][1] not in ("0", "1"):
                report(path, kv[key][0], "campaign-fixture",
                       f'{key} must be 0 or 1, got "{kv[key][1]}"')
        if "schedule" in kv:
            lineno, hexstr = kv["schedule"]
            if (not hexstr or len(hexstr) % 2 != 0
                    or not re.fullmatch(r"[0-9a-f]+", hexstr)):
                report(path, lineno, "campaign-fixture",
                       "schedule must be non-empty even-length lowercase hex")

    # Pass 7: trust-boundary quarantine coverage: every static Deserialize
    # in a src/ header returns a Tainted value or says why it need not.
    for path in source_files(["src"], {".h"}):
        rel = path.relative_to(REPO)
        raw_lines = path.read_text().splitlines()
        code_lines = dict(strip_comments(raw_lines))
        joined = "\n".join(code_lines.get(n, "")
                           for n in range(1, len(raw_lines) + 1))
        for m in SOURCE_DECL_RE.finditer(joined):
            lineno = joined.count("\n", 0, m.start()) + 1
            decl = joined[m.start():m.end()]
            if "Tainted<" in decl:
                continue  # Quarantined — always fine.
            exempt = any(
                TAINT_EXEMPT_RE.search(raw_lines[n])
                for n in range(max(0, lineno - 4), lineno))
            if rel in TAINT_STRICT_HEADERS:
                report(path, lineno, "taint-boundary",
                       f"{m.group(1)} in a trust-boundary header must return "
                       "Result<util::Tainted<T>>; exemptions are not allowed "
                       "here — everything this header parses came off the "
                       "wire")
            elif not exempt:
                report(path, lineno, "taint-boundary",
                       f"{m.group(1)} must return Result<util::Tainted<T>> "
                       "or carry `// taint-exempt: <reason>` explaining why "
                       "its input never crosses the server trust boundary")
        if rel in TAINT_STRICT_HEADERS:
            for lineno, raw in enumerate(raw_lines, start=1):
                if TAINT_EXEMPT_RE.search(raw):
                    report(path, lineno, "taint-boundary",
                           "taint-exempt marker in a trust-boundary header; "
                           "these messages are server-originated by "
                           "definition and must stay quarantined")

    # Pass 8: admin-endpoint coverage. The Handle() registrations in the
    # standard-endpoint installer are the source of truth; each needs its
    # per-endpoint request counter and an ARCHITECTURE.md table row.
    admin_cc = REPO / "src/net/http_admin.cc"
    arch_text = (REPO / "ARCHITECTURE.md").read_text()
    admin_text = admin_cc.read_text()
    endpoints = re.findall(r'Handle\(\s*"/([a-z][a-z0-9_]*)"', admin_text)
    if not endpoints:
        print("lint.py: internal error: found no admin Handle() endpoints",
              file=sys.stderr)
        return 1
    for endpoint in endpoints:
        counter = f"http.admin.{endpoint}.requests_total"
        if f'"{counter}"' not in admin_text:
            report(admin_cc, 1, "admin-endpoint",
                   f'endpoint /{endpoint} has no literal "{counter}" '
                   "counter; every admin endpoint must count its requests")
        if f"`/{endpoint}`" not in arch_text:
            report(admin_cc, 1, "admin-endpoint",
                   f"endpoint /{endpoint} is not documented in "
                   "ARCHITECTURE.md (no `/" + endpoint + "` row in the "
                   "observability-plane endpoint table)")

    for v in violations:
        print(v)
    if violations:
        print(f"lint.py: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint.py: OK ({len(registry)} registered fault points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
