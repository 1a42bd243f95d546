//! The `explain` command: render one auction round's decisions from a
//! recorded trace.
//!
//! Reads a JSONL trace written by `ssam --trace`, `msoa --trace`, or
//! the fault pipeline, filters to one round, and narrates every
//! decision the mechanism took: exclusions, ψ price scaling, greedy
//! selection order, and the Myerson critical-value payment of each
//! winner — including *which runner-up bid priced it*.
//!
//! The narration is not a pretty-printer: every winner's payment is
//! **recomputed from the recorded provenance** (runner-up unit price ×
//! counted contribution, reserve × amount, or the bid's own price) and
//! compared bit-for-bit against the recorded payment. Traces record
//! floats in shortest round-trip form, so the recomputation is exact —
//! any drift between the mechanism and its audit trail fails loudly.

use serde_json::Value;
use std::fmt::Write as _;

/// One line of the trace, already filtered to deterministic events.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    name: String,
    fields: Value,
}

impl TraceEvent {
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    pub(crate) fn str(&self, key: &str) -> Option<&str> {
        match self.fields.get(key) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }

    pub(crate) fn f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_f64)
    }

    pub(crate) fn u64(&self, key: &str) -> Option<u64> {
        match self.fields.get(key) {
            Some(&Value::U64(u)) => Some(u),
            Some(&Value::F64(f)) if f.fract() == 0.0 && f >= 0.0 => Some(f as u64),
            _ => None,
        }
    }

    pub(crate) fn bool(&self, key: &str) -> Option<bool> {
        match self.fields.get(key) {
            Some(&Value::Bool(b)) => Some(b),
            _ => None,
        }
    }
}

/// Errors from trace parsing.
#[derive(Debug)]
pub enum ExplainError {
    /// A line failed to parse as JSON.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// The trace holds no events for the requested round.
    NoSuchRound {
        /// The requested round.
        round: u64,
        /// Rounds that do appear, in order.
        available: Vec<u64>,
    },
    /// The trace holds no per-round events to summarize.
    EmptyTrace,
}

impl std::fmt::Display for ExplainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExplainError::BadLine { line, message } => {
                write!(f, "trace line {line}: {message}")
            }
            ExplainError::NoSuchRound { round, available } => {
                write!(f, "no events for round {round}; trace covers rounds ")?;
                let mut first = true;
                for r in available {
                    if !first {
                        write!(f, ", ")?;
                    }
                    write!(f, "{r}")?;
                    first = false;
                }
                Ok(())
            }
            ExplainError::EmptyTrace => {
                write!(f, "trace holds no per-round events to summarize")
            }
        }
    }
}

impl std::error::Error for ExplainError {}

/// Parses a JSONL trace into its deterministic events, skipping the
/// trailing profile section.
///
/// # Errors
///
/// [`ExplainError::BadLine`] on malformed JSON.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, ExplainError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(line).map_err(|e| ExplainError::BadLine {
            line: i + 1,
            message: e.to_string(),
        })?;
        if value.get("section").is_some() {
            continue; // wall-clock profile entry, not part of the audit trail
        }
        let name = match value.get("event") {
            Some(Value::Str(s)) => s.clone(),
            _ => continue, // span bookkeeping or foreign line
        };
        let fields = value.get("fields").cloned().unwrap_or(Value::Null);
        events.push(TraceEvent { name, fields });
    }
    Ok(events)
}

/// Formats an f64 the way the trace does (shortest round-trip).
fn num(v: f64) -> String {
    format!("{v}")
}

/// The payment verdict for one winner: the payment recomputed from
/// provenance, and whether it matches the recorded value exactly.
struct Verified {
    line: String,
    exact: bool,
}

/// Recomputes one `ssam.payment` event from its recorded provenance and
/// renders the narrated payment line.
fn verify_payment(e: &TraceEvent, reserve: Option<f64>) -> Verified {
    let seller = e.u64("seller").unwrap_or(u64::MAX);
    let bid = e.u64("bid").unwrap_or(u64::MAX);
    let asked = e.f64("price").unwrap_or(f64::NAN);
    let paid = e.f64("payment").unwrap_or(f64::NAN);
    let kind = e.str("kind").unwrap_or("?");
    let (recomputed, origin) = match kind {
        "runner_up" => {
            let unit = e.f64("source_unit_price").unwrap_or(f64::NAN);
            let contrib = e.f64("source_contribution").unwrap_or(f64::NAN);
            let src_seller = e.u64("source_seller").unwrap_or(u64::MAX);
            let src_bid = e.u64("source_bid").unwrap_or(u64::MAX);
            let iter = e.u64("source_iteration").unwrap_or(0);
            (
                unit * contrib,
                format!(
                    "priced by runner-up seller {src_seller} bid#{src_bid} \
                     (replay iteration {iter}: unit {} × {}u)",
                    num(unit),
                    num(contrib)
                ),
            )
        }
        "zero" => (0.0, "no runner-up constrained it (threshold 0)".to_owned()),
        "reserve" => {
            let amount = e.f64("amount").unwrap_or(f64::NAN);
            let r = reserve.unwrap_or(f64::NAN);
            (
                r * amount,
                format!(
                    "reserve price (unit {} × {}u, monopolist)",
                    num(r),
                    num(amount)
                ),
            )
        }
        // Monopolist residual without a binding reserve: IR floor.
        "own_price" => (asked, "own asking price (monopolist residual)".to_owned()),
        other => (f64::NAN, format!("unknown payment kind '{other}'")),
    };
    // Bit-exact: the trace records shortest-round-trip decimals, so the
    // parsed operands are the exact f64s the mechanism multiplied.
    let exact = recomputed == paid || (recomputed.is_nan() && paid.is_nan());
    let mark = if exact {
        "✓".to_owned()
    } else {
        format!("✗ recomputed {}", num(recomputed))
    };
    Verified {
        line: format!(
            "  seller {seller} bid#{bid}: asked {}, paid {} — {origin} {mark}",
            num(asked),
            num(paid)
        ),
        exact,
    }
}

/// Renders the full narrative for `round`, optionally filtered to one
/// seller's bids. Returns the text plus the payment-verification tally
/// `(verified, total)`.
///
/// # Errors
///
/// [`ExplainError::NoSuchRound`] when the trace has no events for the
/// round.
pub fn explain_round(
    events: &[TraceEvent],
    round: u64,
    seller: Option<u64>,
) -> Result<String, ExplainError> {
    let of_round: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.u64("round") == Some(round))
        .collect();
    if of_round.is_empty() {
        let mut available: Vec<u64> = events.iter().filter_map(|e| e.u64("round")).collect();
        available.dedup();
        return Err(ExplainError::NoSuchRound { round, available });
    }
    let wants = |e: &TraceEvent| seller.is_none() || e.u64("seller") == seller;

    let mut out = String::new();
    let _ = writeln!(out, "round {round}");

    // Round shape: the MSOA round header, else the bare SSAM header.
    if let Some(start) = of_round.iter().find(|e| e.name == "round.start") {
        let _ = writeln!(
            out,
            "  demand {} units, {} bids submitted",
            start.u64("demand").unwrap_or(0),
            start.u64("bids").unwrap_or(0)
        );
    } else if let Some(start) = of_round.iter().find(|e| e.name == "ssam.start") {
        let _ = writeln!(
            out,
            "  demand {} units, {} bids ({} eligible)",
            start.u64("demand").unwrap_or(0),
            start.u64("bids").unwrap_or(0),
            start.u64("candidates").unwrap_or(0)
        );
    }

    let excluded: Vec<String> = of_round
        .iter()
        .filter(|e| (e.name == "bid.excluded" || e.name == "ssam.excluded") && wants(e))
        .map(|e| {
            format!(
                "  seller {} bid#{} — {}",
                e.u64("seller").unwrap_or(u64::MAX),
                e.u64("bid").unwrap_or(u64::MAX),
                e.str("reason").unwrap_or("?")
            )
        })
        .collect();
    if !excluded.is_empty() {
        let _ = writeln!(out, "excluded bids:");
        for line in excluded {
            let _ = writeln!(out, "{line}");
        }
    }

    let scaled: Vec<String> = of_round
        .iter()
        .filter(|e| e.name == "bid.scaled" && wants(e))
        .map(|e| {
            let mut line = format!(
                "  seller {} bid#{}: true {}",
                e.u64("seller").unwrap_or(u64::MAX),
                e.u64("bid").unwrap_or(u64::MAX),
                num(e.f64("true_price").unwrap_or(f64::NAN)),
            );
            if let Some(psi) = e.f64("psi_adjust") {
                let _ = write!(line, " + ψ·a {}", num(psi));
            }
            if let Some(rel) = e.f64("reliability_adjust") {
                let _ = write!(
                    line,
                    " + λ(1−ρ)·a {} (ρ {})",
                    num(rel),
                    num(e.f64("rho").unwrap_or(f64::NAN))
                );
            }
            let _ = write!(
                line,
                " → {}",
                num(e.f64("scaled_price").unwrap_or(f64::NAN))
            );
            line
        })
        .collect();
    if !scaled.is_empty() {
        let _ = writeln!(out, "price scaling (dual ψ, reliability):");
        for line in scaled {
            let _ = writeln!(out, "{line}");
        }
    }

    let selections: Vec<&&TraceEvent> = of_round
        .iter()
        .filter(|e| e.name == "ssam.select" && wants(e))
        .collect();
    if !selections.is_empty() {
        let _ = writeln!(
            out,
            "greedy selection (by unit price of marginal contribution):"
        );
        for e in selections {
            let before = e.u64("remaining_before").unwrap_or(0);
            let contribution = e.u64("contribution").unwrap_or(0);
            let _ = writeln!(
                out,
                "  #{} seller {} bid#{}: counted {} of {}u @ unit {} (remaining {} → {})",
                e.u64("order").unwrap_or(0),
                e.u64("seller").unwrap_or(u64::MAX),
                e.u64("bid").unwrap_or(u64::MAX),
                contribution,
                e.u64("amount").unwrap_or(0),
                num(e.f64("unit_price").unwrap_or(f64::NAN)),
                before,
                before.saturating_sub(contribution)
            );
        }
    }

    // The reserve (for payment recomputation of "reserve" kinds) comes
    // from the round's ssam.start event.
    let reserve = of_round
        .iter()
        .find(|e| e.name == "ssam.start")
        .and_then(|e| e.f64("reserve_unit_price"));
    let payments: Vec<Verified> = of_round
        .iter()
        .filter(|e| e.name == "ssam.payment" && wants(e))
        .map(|e| verify_payment(e, reserve))
        .collect();
    if !payments.is_empty() {
        let _ = writeln!(out, "payments (Myerson critical values):");
        let total = payments.len();
        let mut ok = 0usize;
        for v in &payments {
            let _ = writeln!(out, "{}", v.line);
            ok += usize::from(v.exact);
        }
        let _ = writeln!(
            out,
            "payments verified: {ok}/{total} reproduced exactly from recorded provenance"
        );
    }

    // Pricing effort from the ssam.stats counters: how many Myerson
    // replays ran and how much of their work the shared prefix absorbed.
    if let Some(stats) = of_round.iter().find(|e| e.name == "ssam.stats") {
        if let (Some(replays), Some(iters)) =
            (stats.u64("payment_replays"), stats.u64("replay_iterations"))
        {
            let prefix = stats.u64("replay_prefix_iterations").unwrap_or(0);
            let _ = writeln!(
                out,
                "pricing effort: {replays} payment replays, {iters} replay iterations \
                 ({prefix} answered from the shared prefix)"
            );
        }
    }

    for e in of_round
        .iter()
        .filter(|e| e.name == "settlement" && wants(e))
    {
        let _ = writeln!(
            out,
            "settlement: seller {} bid#{} committed {} delivered {} — due {}, paid {}, clawed back {}",
            e.u64("seller").unwrap_or(u64::MAX),
            e.u64("bid").unwrap_or(u64::MAX),
            e.u64("committed").unwrap_or(0),
            e.u64("delivered").unwrap_or(0),
            num(e.f64("payment_due").unwrap_or(f64::NAN)),
            num(e.f64("payment_made").unwrap_or(f64::NAN)),
            num(e.f64("clawback").unwrap_or(f64::NAN)),
        );
    }
    for e in of_round.iter().filter(|e| e.name == "backfill.start") {
        let _ = writeln!(
            out,
            "backfill re-auction: relaxation rung {} (shortfall {})",
            e.u64("rung").unwrap_or(0),
            e.u64("shortfall").unwrap_or(0)
        );
    }
    for e in of_round.iter().filter(|e| e.name == "sla.violation") {
        let _ = writeln!(
            out,
            "SLA VIOLATED: {} of {} units unserved",
            e.u64("shortfall").unwrap_or(0),
            e.u64("demand").unwrap_or(0)
        );
    }

    if let Some(end) = of_round.iter().find(|e| e.name == "round.end") {
        let _ = write!(
            out,
            "round totals: winners {}, social cost {}",
            end.u64("winners").unwrap_or(0),
            num(end.f64("social_cost").unwrap_or(f64::NAN)),
        );
        if let Some(paid) = platform_paid(end) {
            let _ = write!(out, ", payments {}", num(paid));
        }
        let _ = writeln!(out);
    } else if let Some(end) = of_round.iter().find(|e| e.name == "ssam.end") {
        let _ = writeln!(
            out,
            "round totals: winners {}, social cost {}, payments {}, certified π {}",
            end.u64("winners").unwrap_or(0),
            num(end.f64("social_cost").unwrap_or(f64::NAN)),
            num(end.f64("total_payment").unwrap_or(f64::NAN)),
            num(end.f64("pi").unwrap_or(f64::NAN)),
        );
    }
    Ok(out)
}

/// What the platform paid in a round, from its `round.end`: the MSOA
/// round loop records `platform_cost`; traces written before MSOA and
/// recovery shared one loop record `total_payment` on plain runs.
fn platform_paid(end: &TraceEvent) -> Option<f64> {
    end.f64("platform_cost")
        .or_else(|| end.f64("total_payment"))
}

/// One-screen aggregate table over every recorded round: winners,
/// payments, and pricing effort, so operators don't need to replay a
/// trace round by round. Works on `msoa`, fault-recovery, and `serve`
/// traces; `serve` traces stamp a stage index onto every event, which
/// becomes the round label's `stage.round` prefix.
///
/// # Errors
///
/// [`ExplainError::EmptyTrace`] when the trace has no per-round events.
pub fn explain_summary(events: &[TraceEvent]) -> Result<String, ExplainError> {
    use edge_bench::table::Table;

    // Rounds in first-appearance order, keyed by (stage, round) so
    // multi-stage `serve` traces don't fold distinct rounds together.
    let mut order: Vec<(Option<u64>, u64)> = Vec::new();
    for e in events {
        if let Some(r) = e.u64("round") {
            let key = (e.u64("stage"), r);
            if !order.contains(&key) {
                order.push(key);
            }
        }
    }
    if order.is_empty() {
        return Err(ExplainError::EmptyTrace);
    }
    let staged = order.iter().any(|(s, _)| s.is_some());

    let mut table = Table::new([
        "round", "demand", "winners", "cost", "paid", "replays", "iters", "prefix", "flags",
    ]);
    let mut tot_winners = 0u64;
    let mut tot_cost = 0.0f64;
    let mut tot_paid = 0.0f64;
    let mut tot_replays = 0u64;
    let mut tot_iters = 0u64;
    let mut tot_prefix = 0u64;
    for (stage, round) in &order {
        let of_round: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.u64("round") == Some(*round) && e.u64("stage") == *stage)
            .collect();
        let start = of_round
            .iter()
            .find(|e| e.name == "round.start" || e.name == "ssam.start");
        let end = of_round
            .iter()
            .find(|e| e.name == "round.end" || e.name == "ssam.end");
        let demand = start.and_then(|e| e.u64("demand")).unwrap_or(0);
        let winners = end.and_then(|e| e.u64("winners")).unwrap_or(0);
        let cost = end.and_then(|e| e.f64("social_cost")).unwrap_or(0.0);
        let paid = end.and_then(|e| platform_paid(e)).unwrap_or(0.0);
        let mut replays = 0u64;
        let mut iters = 0u64;
        let mut prefix = 0u64;
        for stats in of_round.iter().filter(|e| e.name == "ssam.stats") {
            replays += stats.u64("payment_replays").unwrap_or(0);
            iters += stats.u64("replay_iterations").unwrap_or(0);
            prefix += stats.u64("replay_prefix_iterations").unwrap_or(0);
        }
        let mut flags = Vec::new();
        if end.and_then(|e| e.bool("infeasible")).unwrap_or(false) {
            flags.push("uncovered");
        }
        if of_round.iter().any(|e| e.name == "sla.violation") {
            flags.push("SLA");
        }
        let label = match stage {
            Some(s) if staged => format!("{s}.{round}"),
            _ => round.to_string(),
        };
        table.push([
            label,
            demand.to_string(),
            winners.to_string(),
            num(cost),
            num(paid),
            replays.to_string(),
            iters.to_string(),
            prefix.to_string(),
            flags.join("+"),
        ]);
        tot_winners += winners;
        tot_cost += cost;
        tot_paid += paid;
        tot_replays += replays;
        tot_iters += iters;
        tot_prefix += prefix;
    }
    table.push([
        "total".to_string(),
        String::new(),
        tot_winners.to_string(),
        num(tot_cost),
        num(tot_paid),
        tot_replays.to_string(),
        tot_iters.to_string(),
        tot_prefix.to_string(),
        String::new(),
    ]);
    let mut out = format!("{} rounds\n", order.len());
    out.push_str(&table.render());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(lines: &[&str]) -> Vec<TraceEvent> {
        parse_trace(&lines.join("\n")).unwrap()
    }

    #[test]
    fn skips_profile_lines_and_blank_lines() {
        let events = trace(&[
            r#"{"seq":0,"level":"info","event":"ssam.start","fields":{"round":0,"demand":5,"bids":3,"candidates":3}}"#,
            "",
            r#"{"section":"profile","name":"sweep.profile","fields":{"total_us":12}}"#,
        ]);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "ssam.start");
    }

    #[test]
    fn bad_json_reports_the_line() {
        let err = parse_trace("{\"event\":\"x\"}\nnot json").unwrap_err();
        assert!(matches!(err, ExplainError::BadLine { line: 2, .. }));
    }

    #[test]
    fn missing_round_lists_available() {
        let events = trace(&[
            r#"{"seq":0,"event":"round.start","fields":{"round":0,"demand":5,"bids":2}}"#,
            r#"{"seq":1,"event":"round.start","fields":{"round":1,"demand":6,"bids":2}}"#,
        ]);
        let err = explain_round(&events, 7, None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("round 7"), "{msg}");
        assert!(msg.contains("0, 1"), "{msg}");
    }

    #[test]
    fn runner_up_payment_recomputes_exactly() {
        let unit = 1.23456789f64;
        let contrib = 3.0f64;
        let paid = unit * contrib;
        let line = format!(
            r#"{{"seq":0,"event":"ssam.payment","fields":{{"round":0,"seller":0,"bid":0,"amount":3,"price":2.5,"payment":{paid},"kind":"runner_up","source_seller":1,"source_bid":0,"source_iteration":0,"source_unit_price":{unit},"source_contribution":{contrib}}}}}"#
        );
        let events = parse_trace(&line).unwrap();
        let out = explain_round(&events, 0, None).unwrap();
        assert!(out.contains("runner-up seller 1"), "{out}");
        assert!(out.contains("payments verified: 1/1"), "{out}");
    }

    #[test]
    fn tampered_payment_is_flagged() {
        let line = r#"{"seq":0,"event":"ssam.payment","fields":{"round":0,"seller":0,"bid":0,"amount":3,"price":2.5,"payment":99.0,"kind":"runner_up","source_seller":1,"source_bid":0,"source_iteration":0,"source_unit_price":2.0,"source_contribution":3}}"#;
        let events = parse_trace(line).unwrap();
        let out = explain_round(&events, 0, None).unwrap();
        assert!(out.contains("payments verified: 0/1"), "{out}");
        assert!(out.contains("✗ recomputed 6"), "{out}");
    }

    #[test]
    fn stats_event_renders_pricing_effort() {
        let lines = [
            r#"{"seq":0,"event":"ssam.payment","fields":{"round":0,"seller":0,"bid":0,"amount":3,"price":2.5,"payment":0.0,"kind":"zero"}}"#,
            r#"{"seq":1,"event":"ssam.stats","fields":{"round":0,"heap_pops":9,"heap_repushes":1,"sold_discards":0,"unsafe_discards":0,"payment_replays":4,"replay_iterations":31,"replay_prefix_iterations":17}}"#,
        ];
        let events = trace(&lines);
        let out = explain_round(&events, 0, None).unwrap();
        assert!(
            out.contains(
                "pricing effort: 4 payment replays, 31 replay iterations \
                 (17 answered from the shared prefix)"
            ),
            "{out}"
        );
    }

    #[test]
    fn seller_filter_drops_other_sellers() {
        let lines = [
            r#"{"seq":0,"event":"ssam.select","fields":{"round":0,"order":0,"seller":3,"bid":0,"amount":2,"contribution":2,"price":4.0,"unit_price":2.0,"remaining_before":5}}"#,
            r#"{"seq":1,"event":"ssam.select","fields":{"round":0,"order":1,"seller":4,"bid":0,"amount":3,"contribution":3,"price":9.0,"unit_price":3.0,"remaining_before":3}}"#,
        ];
        let events = trace(&lines);
        let out = explain_round(&events, 0, Some(4)).unwrap();
        assert!(out.contains("seller 4"), "{out}");
        assert!(!out.contains("seller 3"), "{out}");
    }
}
