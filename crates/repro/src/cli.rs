//! The `repro` command line: one table of subcommands, each declaring
//! its positionals and flags. `main` parses `argv` once against it, and
//! the usage text is rendered from the same table. Bad input prints the
//! error and the subcommand's usage on stderr and exits 2, before
//! anything is simulated.
//!
//! The subcommand is the first token that is neither a flag nor the
//! value of a global flag; global flags are accepted at any position,
//! and a line of global flags alone runs `trace`.

/// What a flag takes.
#[derive(Clone, Copy)]
enum Kind {
    /// No value: the flag is on or off.
    Switch,
    /// One value, kept as given; shown as its metavariable.
    Text(&'static str),
    /// Like `Text`, and may be given more than once.
    Repeat(&'static str),
    /// An integer in `min..=max`.
    Int(&'static str, u64, u64),
    /// A number in `min..=max`.
    Real(&'static str, f64, f64),
    /// One word of a fixed set, matched case-insensitively and read back
    /// as spelled here.
    Choice(&'static [&'static str]),
    /// `loss` (a WAN segment-loss rate of 3e-3) or `loss=RATE`, read
    /// back as the rate.
    Loss,
}

/// What a positional takes.
#[derive(Clone, Copy)]
enum Pos {
    /// A required value, shown as its metavariable.
    Required(&'static str),
    /// A required word of a fixed set, shown `<a|b>`.
    OneOf(&'static [&'static str]),
    /// An optional word of a fixed set, shown `[META]` (`[a|b]` when
    /// META is empty).
    MaybeOneOf(&'static str, &'static [&'static str]),
    /// Any number of values, shown `[META ...]`.
    Rest(&'static str),
}

/// One subcommand; a group's members are named `ledger diff`, ...
struct Command {
    name: &'static str,
    pos: &'static [Pos],
    flags: &'static [(&'static str, Kind)],
}

/// Upper bound of `--perturb loss=RATE`: the campaign adds the rate to
/// its cells' own loss (at most 1e-3), and the sum must stay below 1.
const MAX_LOSS: f64 = 0.5;
/// The NPB kernels `trace` accepts (`npb::NasBenchmark::name`).
const BENCHES: [&str; 8] = ["EP", "CG", "MG", "LU", "SP", "BT", "IS", "FT"];
const SCENARIO: &[Pos] = &[Pos::MaybeOneOf("", &crate::catalogue::NAMES)];
const U32: u64 = u32::MAX as u64;

const fn cmd(
    name: &'static str,
    pos: &'static [Pos],
    flags: &'static [(&'static str, Kind)],
) -> Command {
    Command { name, pos, flags }
}

const fn plain(name: &'static str) -> Command {
    cmd(name, &[], &[])
}

use Kind::*;

/// Every subcommand, in usage order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    plain("table1"), plain("table2"), plain("table4"), plain("table5"), plain("table6"),
    plain("table7"), plain("fig3"), plain("fig5"), plain("fig6"), plain("fig7"), plain("fig9"),
    plain("fig10"), plain("fig11"), plain("fig12"), plain("fig13"), plain("testbed"),
    plain("ablation"), plain("g2"), plain("heterogeneity"), plain("perturbation"),
    plain("simri"), plain("utilization"), plain("placement"), plain("scaling"),
    cmd("trace", &[Pos::MaybeOneOf("BENCH", &BENCHES)], &[]),
    plain("cwnd"),
    plain("faults"),
    cmd("ring", &[], &[
        ("--ranks", Int("N", 1, 1 << 20)),
        ("--rounds", Int("N", 1, U32)),
    ]),
    cmd("blame", SCENARIO, &[
        ("--trace-in", Text("FILE")),
        ("--emit-events", Text("FILE")),
        ("--format", Choice(&["text", "json", "dat"])),
    ]),
    cmd("profile", SCENARIO, &[
        ("--domain", Choice(&["host", "virtual"])),
        ("--format", Choice(&["folded", "speedscope"])),
    ]),
    // Milliseconds, scaled to nanoseconds without overflow.
    cmd("timeline", SCENARIO, &[("--window", Int("MS", 1, u64::MAX / 1_000_000))]),
    cmd("autotune-coll", &[], &[
        ("--quick", Switch),
        ("--check", Switch),
        ("--cache", Text("FILE")),
    ]),
    cmd("golden", &[Pos::OneOf(&["record", "check"])], &[("--dir", Text("DIR"))]),
    cmd("guidelines", &[Pos::Rest("NAME")], &[("--format", Choice(&["text", "json"]))]),
    cmd("campaign", &[], &[
        ("--spec", Choice(&["quick", "tiny"])),
        ("--label", Text("NAME")),
        ("--ledger-dir", Text("DIR")),
        ("--cache", Text("FILE")),
        ("--perturb", Loss),
        ("--no-heartbeat", Switch),
        ("--min-cache-hits", Real("PCT", 0.0, 100.0)),
        ("--no-guidelines", Switch),
    ]),
    cmd("ledger diff", &[Pos::Required("OLD"), Pos::Required("NEW")], &[
        ("--threshold", Real("PCT", 0.0, f64::INFINITY)),
    ]),
    cmd("ledger top", &[Pos::Required("OLD"), Pos::Required("NEW")], &[
        ("--limit", Int("N", 1, U32)),
        ("--min-delta", Real("X", 0.0, 1.0)),
    ]),
    // The global `--dat`, which the parser matches first, listed because
    // its tables are all that `report` writes.
    cmd("ledger report", &[Pos::Required("FILE")], &[("--dat", Text("DIR"))]),
    cmd("validate", &[Pos::Required("FILE")], &[
        ("--require-event", Repeat("NAME")),
        ("--summary", Switch),
    ]),
    plain("all"),
];

/// The global flags, accepted at any position.
#[rustfmt::skip]
const GLOBALS: Command = cmd("", &[], &[
    ("--class-a", Switch),
    ("--dat", Text("DIR")),
    ("--trace-out", Text("FILE")),
    ("--metrics", Text("FILE")),
]);

/// The checked positionals and flags of one subcommand, or of the
/// global flags.
pub(crate) struct Args {
    command: &'static Command,
    positionals: Vec<String>,
    /// Each flag given, with its checked value: empty for a switch, a
    /// choice as spelled in the table, `--perturb`'s rate.
    flags: Vec<(&'static str, String)>,
}

impl Args {
    pub(crate) fn name(&self) -> &'static str {
        self.command.name
    }

    pub(crate) fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Positional `i`, which the table declares required.
    pub(crate) fn arg(&self, i: usize) -> &str {
        self.positional(i)
            .expect("the parser checked the required positionals")
    }

    pub(crate) fn positionals(&self) -> &[String] {
        &self.positionals
    }

    pub(crate) fn switch(&self, flag: &str) -> bool {
        self.text(flag).is_some()
    }

    pub(crate) fn text(&self, flag: &str) -> Option<&str> {
        self.texts(flag).pop()
    }

    /// Every value of a `Repeat` flag, in command-line order.
    pub(crate) fn texts(&self, flag: &str) -> Vec<&str> {
        debug_assert!(
            self.command.flags.iter().any(|(name, _)| *name == flag),
            "{:?} declares no {flag}",
            self.command.name
        );
        let given = self.flags.iter().filter(|(name, _)| *name == flag);
        given.map(|(_, v)| v.as_str()).collect()
    }

    /// An `Int`, `Real` or `Loss` flag's value.
    pub(crate) fn num(&self, flag: &str) -> Option<f64> {
        let v = self.text(flag)?;
        Some(v.parse().expect("the parser checked every number"))
    }

    /// Reject the invocation for a reason the table cannot state.
    pub(crate) fn fail(&self, message: String) -> ! {
        fail(message, usage_of(self.command.name))
    }
}

/// Parse `argv` (without the program name) into the global flags and
/// the subcommand's arguments. `help`, `--help` and `-h` print the usage
/// on stdout and exit 0.
pub(crate) fn parse(argv: &[String]) -> (Args, Args) {
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let first = word_at(&argv, 0);
    let word = first.map_or("trace", |i| argv[i]);
    if argv.is_empty() || word == "help" || argv.iter().any(|a| matches!(*a, "--help" | "-h")) {
        println!("{}", usage());
        std::process::exit(0);
    }
    if entry(word).is_none() {
        fail(format!("unknown command {word:?}"), usage());
    }
    // In a group, the next word names the member (`ledger diff`).
    let member = first
        .and_then(|i| word_at(&argv, i + 1))
        .filter(|_| find(word).is_none());
    let name = member.map_or(word.to_string(), |j| format!("{word} {}", argv[j]));
    let Some(command) = find(&name) else {
        fail(format!("unknown command {name:?}"), usage_of(word))
    };

    let new = |command| Args {
        command,
        positionals: Vec::new(),
        flags: Vec::new(),
    };
    let (mut globals, mut args) = (new(&GLOBALS), new(command));
    let error = |message: String| fail(message, usage_of(command.name));
    let mut given: Vec<&str> = Vec::new();
    let mut tokens = (0..argv.len())
        .filter(|&i| ![first, member].contains(&Some(i)))
        .map(|i| argv[i])
        .peekable();
    while let Some(a) = tokens.next() {
        if !a.starts_with('-') {
            given.push(a);
            continue;
        }
        let into = match flag(&GLOBALS, a) {
            Some(_) => &mut globals,
            None => &mut args,
        };
        let Some((name, kind)) = flag(into.command, a) else {
            error(format!("unknown flag {a}"))
        };
        if !matches!(kind, Switch | Repeat(_)) && into.flags.iter().any(|(n, _)| *n == name) {
            error(format!("{name} given twice"));
        }
        let value = match kind {
            Switch => String::new(),
            _ => {
                let Some(v) = tokens.next_if(|v| !v.starts_with("--")) else {
                    error(format!("{name} needs a value"))
                };
                read(kind, v)
                    .unwrap_or_else(|| error(format!("{name} wants {}, got {v:?}", want(kind))))
            }
        };
        into.flags.push((name, value));
    }
    args.positionals = positionals(command, &given).unwrap_or_else(|m| error(m));
    (globals, args)
}

/// Print `message` and `usage` on stderr and exit 2.
fn fail(message: String, usage: String) -> ! {
    eprintln!("repro: {message}\n{usage}");
    std::process::exit(2);
}

fn find(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn flag(command: &Command, name: &str) -> Option<(&'static str, Kind)> {
    command.flags.iter().copied().find(|(n, _)| *n == name)
}

/// Index of the first token at or after `from` that is neither a flag
/// nor a global flag's value.
fn word_at(argv: &[&str], from: usize) -> Option<usize> {
    let mut i = from;
    while let Some(a) = argv.get(i) {
        if !a.starts_with('-') {
            return Some(i);
        }
        let takes_value = flag(&GLOBALS, a).is_some_and(|(_, k)| !matches!(k, Switch));
        i += if takes_value { 2 } else { 1 };
    }
    None
}

/// Check `given` against the command's positionals; words of a fixed
/// set come back as spelled in the table.
fn positionals(command: &Command, given: &[&str]) -> Result<Vec<String>, String> {
    let mut given = given.iter().copied();
    let mut out = Vec::new();
    let pick = |words: &'static [&str], w: &str| {
        let unknown = || format!("unknown argument {w:?} (want {})", words.join("|"));
        read(Choice(words), w).ok_or_else(unknown)
    };
    for &pos in command.pos {
        let next = given.next();
        match (pos, next) {
            (Pos::Required(_) | Pos::OneOf(_), None) => {
                return Err(format!("missing{}", synopsis(&[pos], &[])))
            }
            (Pos::Required(_), Some(v)) => out.push(v.to_string()),
            (Pos::OneOf(words) | Pos::MaybeOneOf(_, words), Some(w)) => out.push(pick(words, w)?),
            (Pos::MaybeOneOf(..), None) => {}
            (Pos::Rest(_), _) => out.extend(next.into_iter().chain(&mut given).map(String::from)),
        }
    }
    match given.next() {
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
        None => Ok(out),
    }
}

/// Check one value against its kind; the value as kept.
fn read(kind: Kind, v: &str) -> Option<String> {
    let within = |min: f64, max: f64, x: f64| (min..=max).contains(&x).then(|| v.to_string());
    match kind {
        Switch | Text(_) | Repeat(_) => Some(v.to_string()),
        Choice(words) => words
            .iter()
            .find(|w| w.eq_ignore_ascii_case(v))
            .map(|w| w.to_string()),
        Int(_, min, max) => within(min as f64, max as f64, v.parse::<u64>().ok()? as f64),
        Real(_, min, max) => within(min, max, v.parse::<f64>().ok()?),
        Loss if v == "loss" => Some("3e-3".to_string()),
        Loss => read(Real("", 0.0, MAX_LOSS), v.strip_prefix("loss=")?),
    }
}

/// What a kind accepts, for error messages.
fn want(kind: Kind) -> String {
    match kind {
        Int(_, min, max) => format!("an integer from {min} to {max}"),
        Real(_, min, max) => format!("a number from {min} to {max}"),
        Loss => format!("loss or loss=RATE with RATE from 0 to {MAX_LOSS}"),
        _ => format!("one of{}", meta(kind)),
    }
}

/// How a flag's value is shown in the usage.
fn meta(kind: Kind) -> String {
    match kind {
        Switch => String::new(),
        Text(m) | Repeat(m) | Int(m, ..) | Real(m, ..) => format!(" {m}"),
        Choice(words) => format!(" {}", words.join("|")),
        Loss => " loss[=RATE]".to_string(),
    }
}

/// ` POS ... [--flag META] ...`.
fn synopsis(pos: &[Pos], flags: &[(&str, Kind)]) -> String {
    let pos = pos.iter().map(|p| match *p {
        Pos::Required(m) => format!(" {m}"),
        Pos::OneOf(words) => format!(" <{}>", words.join("|")),
        Pos::MaybeOneOf("", words) => format!(" [{}]", words.join("|")),
        Pos::MaybeOneOf(m, _) => format!(" [{m}]"),
        Pos::Rest(m) => format!(" [{m} ...]"),
    });
    let flags = flags
        .iter()
        .map(|&(n, kind)| format!(" [{n}{}]", meta(kind)));
    pos.chain(flags).collect()
}

/// Command `name` and its synopsis (a group renders as
/// `name <a ...|b ...>`), or `None` if there is no such command.
fn entry(name: &str) -> Option<String> {
    if let Some(c) = find(name) {
        return Some(format!("{name}{}", synopsis(c.pos, c.flags)));
    }
    let members: Vec<String> = COMMANDS
        .iter()
        .filter_map(|c| {
            let sub = c.name.strip_prefix(name)?.strip_prefix(' ')?;
            Some(format!("{sub}{}", synopsis(c.pos, c.flags)))
        })
        .collect();
    (!members.is_empty()).then(|| format!("{name} <{}>", members.join("|")))
}

/// `usage: repro BODY [global flags]`.
fn usage_line(body: &str) -> String {
    format!("usage: repro {body}{}", synopsis(&[], GLOBALS.flags))
}

fn usage_of(name: &str) -> String {
    usage_line(&entry(name).unwrap_or_default())
}

/// The full synopsis.
fn usage() -> String {
    let mut words: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.name.split(' ').next())
        .collect();
    words.dedup();
    let entries: Vec<String> = words.into_iter().filter_map(entry).collect();
    usage_line(&format!("<{}>", entries.join("|")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_accepts_every_nas_kernel() {
        let names: Vec<&str> = npb::NasBenchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names, BENCHES);
    }
}
