"""Output checks of the dpjoin_serve benchmark.

Each check is a pure function that returns None when the outputs pass and a
one-line description of the first problem otherwise. `liveness` feeds each
check a deliberately broken copy of real outputs and confirms that the check
notices, so a check that can never fail cannot hide behind a green run.
"""

import copy

# Released answers may exceed the planner's predicted error (the paper's
# bound with the O(.) constants dropped, core/theory_bounds.h) by at most
# this factor. The planner understates the Laplace error most: over 400
# Laplace releases of the menu, max error / predicted had median 15 and
# maximum 62, with an exponential tail (one e-fold per ~9), so 200 keeps a
# false alarm below about 1e-9 per release.
ERROR_BOUND_FACTOR = 200.0

# An informative release (inputs.MENU) must beat the all-zero answer
# vector, whose max error is max|exact| (the join size): its own max error
# must stay below this share of that.
ZERO_SHARE = 0.9

# id-list answers must equal the all:true vector at those ids to within
# this relative tolerance.
ID_LIST_RTOL = 1e-9

# Marginal groups must sum to the counting answer to within this relative
# tolerance (floating-point summation order differs).
MARGINAL_RTOL = 1e-9

# Ledger sums are compared to within this relative tolerance.
LEDGER_RTOL = 1e-9


def close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def accuracy(answers, oracle):
    """(problem, max |answer - exact| / join size)."""
    exact = oracle["exact"]
    if len(answers) != len(exact):
        return "answer vector has %d entries, workload has %d" % (
            len(answers), len(exact)), 0.0
    worst = max(abs(a - e) for a, e in zip(answers, exact))
    limit = ERROR_BOUND_FACTOR * oracle["predicted_error"]
    rel = worst / exact[0]
    if worst > limit:
        return "max error %.6g exceeds %.6g x predicted %.6g" % (
            worst, ERROR_BOUND_FACTOR, oracle["predicted_error"]), rel
    return None, rel


def beats_zero(answers, oracle):
    exact = oracle["exact"]
    worst = max(abs(a - e) for a, e in zip(answers, exact))
    trivial = max(abs(e) for e in exact)
    if worst >= ZERO_SHARE * trivial:
        return "max error %.6g is not below %.2g x the all-zero vector's %.6g" % (
            worst, ZERO_SHARE, trivial)
    return None


def release_answers(answers, oracle, informative, synthetic):
    """Every check of one fresh release's all:true answers: the paper's
    bound, the all-zero vector for informative releases, and marginal
    consistency for synthetic-data ones. Returns (problem, max |answer -
    exact| / join size)."""
    problem, rel = accuracy(answers, oracle)
    if problem is None and informative:
        problem = beats_zero(answers, oracle)
    if problem is None and synthetic:
        problem = marginals(answers, oracle)
    return problem, rel


def marginals(answers, oracle):
    """Each 1-way marginal group must sum to the counting answer (query 0).
    Applies to synthetic-data releases of marginal_all workloads."""
    total = answers[0]
    for group in oracle.get("marginal_groups", []):
        s = sum(answers[i] for i in group)
        if not close(s, total, MARGINAL_RTOL):
            return "marginal group sums to %.17g, count answer is %.17g" % (
                s, total)
    return None


def id_list(ids, id_answers, all_answers):
    if len(ids) != len(id_answers):
        return "id-list answer has %d entries for %d ids" % (
            len(id_answers), len(ids))
    for i, a in zip(ids, id_answers):
        if not close(a, all_answers[i], ID_LIST_RTOL):
            return "id %d answers %.17g, all:true says %.17g" % (
                i, a, all_answers[i])
    return None


def ledger(ledger_obj, fresh, nominal_epsilon, last_spent_epsilon):
    """`fresh`: [(spec name, menu kind)] of every fresh release, in commit
    order. Every fresh release has exactly one entry, labelled with its
    spec name; the entries sum to the ledger total and to the spend the
    last fresh release reported; each entry spends the spec's nominal ε,
    or more for hierarchical uniformize (its measured group-privacy
    factor)."""
    entries = ledger_obj["entries"]
    if len(entries) != len(fresh):
        return "ledger has %d entries for %d fresh releases" % (
            len(entries), len(fresh))
    total = 0.0
    for entry, (name, kind) in zip(entries, fresh):
        if entry["label"] != name:
            return "ledger entry %r where %r was released" % (
                entry["label"], name)
        eps = entry["total"]["epsilon"]
        if kind == "hierarchical":
            if eps < nominal_epsilon:
                return "entry %r spends %.17g < nominal" % (name, eps)
        elif not close(eps, nominal_epsilon, LEDGER_RTOL):
            return "entry %r spends %.17g, spec says %.17g" % (
                name, eps, nominal_epsilon)
        total += eps
    reported = ledger_obj["total"]["epsilon"]
    if not close(total, reported, LEDGER_RTOL):
        return "entries sum to %.17g, ledger total is %.17g" % (
            total, reported)
    if not close(reported, last_spent_epsilon, LEDGER_RTOL):
        return "ledger total %.17g, last release reported %.17g" % (
            reported, last_spent_epsilon)
    return None


def same_total(a, b):
    """Two ledger objects (e.g. live and reloaded) agree on total spend."""
    for key in ("epsilon", "delta"):
        if not close(a["total"][key], b["total"][key], LEDGER_RTOL):
            return "ledger totals differ in %s: %.17g vs %.17g" % (
                key, a["total"][key], b["total"][key])
    if len(a["entries"]) != len(b["entries"]):
        return "ledgers differ in entry count"
    return None


def identical(lines_a, lines_b):
    """Byte-for-byte equality of two response-line sequences."""
    if len(lines_a) != len(lines_b):
        return "%d response lines vs %d" % (len(lines_a), len(lines_b))
    for k, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            return "response line %d differs" % k
    return None


def liveness(sample):
    """Runs each check on a corrupted copy of real outputs and returns the
    checks that failed to notice. `sample` holds one real instance of each
    checked output: the answers + oracle of an informative synthetic-data
    release, ledger + fresh list, and two response line sequences that are
    identical."""
    blind = []

    answers = list(sample["answers"])
    oracle = sample["oracle"]
    worst = max(range(len(answers)),
                key=lambda i: abs(answers[i] - oracle["exact"][i]))
    answers[worst] = oracle["exact"][worst] + 2.0 * (
        ERROR_BOUND_FACTOR * oracle["predicted_error"] + oracle["exact"][0])
    corrupted = {"accuracy": answers,
                 "zero_answers": [0.0] * len(answers),
                 "reversed_answers": sample["answers"][::-1]}
    for name, wrong_answers in corrupted.items():
        if release_answers(wrong_answers, oracle, True, True)[0] is None:
            blind.append(name)

    wrong = copy.deepcopy(sample["ledger"])
    wrong["entries"][-1]["total"]["epsilon"] += 0.5
    if ledger(wrong, sample["fresh"], sample["nominal_epsilon"],
              sample["last_spent_epsilon"]) is None:
        blind.append("ledger")

    lines = list(sample["lines"])
    k = len(lines) // 2
    flipped = bytearray(lines[k])
    flipped[len(flipped) // 2] ^= 0x01
    lines[k] = bytes(flipped)
    if identical(sample["lines"], lines) is None:
        blind.append("bytes")
    return blind
