//! The committed `BENCH_<name>.json` artifacts: what each one must provide
//! to the `bench` binary, and the document queries their validators share.
//!
//! A validator reads [`jsonparse::Value`]s directly — the documents are
//! checked, never decoded into the report structs — so what is shared is
//! only the preamble every one of them opened with: parse, schema tag,
//! mode, "the cell with these keys", "a positive number at this key".

use crate::json::ToJson;
use crate::jsonparse::{self, Value};

/// One benchmark artifact: a report that can produce itself, describe
/// itself on a terminal, and check an emitted copy of itself.
pub trait Artifact: ToJson + Sized {
    /// Subcommand name; the default output path is `BENCH_<NAME>.json`.
    const NAME: &'static str;

    /// Runs the benchmark (`smoke` = CI-sized grid and budgets).
    fn run(smoke: bool) -> Self;

    /// Human-readable result lines, one per cell plus totals.
    fn summary(&self) -> Vec<String>;

    /// Validates an emitted document; the first problem found is the error.
    fn validate(text: &str) -> Result<(), String>;
}

/// The `mode` member every artifact carries.
pub fn mode_label(smoke: bool) -> String {
    if smoke { "smoke" } else { "full" }.to_string()
}

/// Parses `text` and checks it carries the schema tag `schema`.
pub fn open(text: &str, schema: &str) -> Result<Value, String> {
    let v = jsonparse::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some(schema) {
        return Err(format!("schema tag is not {schema:?}"));
    }
    Ok(v)
}

/// Whether the document is a full-mode run (timing gates apply).
pub fn is_full(v: &Value) -> bool {
    v.get("mode").and_then(Value::as_str) == Some("full")
}

/// Whether the boolean member `key` is present and true.
pub fn flag(v: &Value, key: &str) -> bool {
    v.get(key).and_then(Value::as_bool) == Some(true)
}

/// The array member `key`.
pub fn cells<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    v.get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("missing {key} cells"))
}

/// The `what` cell whose numeric members equal `keys`.
pub fn find<'a>(
    cells: &'a [Value],
    what: &str,
    keys: &[(&str, usize)],
) -> Result<&'a Value, String> {
    cells
        .iter()
        .find(|c| {
            keys.iter()
                .all(|(k, x)| c.get(k).and_then(Value::as_f64) == Some(*x as f64))
        })
        .ok_or_else(|| {
            let at: Vec<String> = keys.iter().map(|(k, x)| format!("{k}={x}")).collect();
            format!("missing {what} cell for {}", at.join(" / "))
        })
}

/// The numeric member `key` of the cell described by `ctx`.
pub fn num(cell: &Value, ctx: &str, key: &str) -> Result<f64, String> {
    cell.get(key)
        .and_then(Value::as_f64)
        .ok_or(format!("{ctx}: missing {key}"))
}

/// Requires every member in `keys` to be a number above zero.
pub fn positive(cell: &Value, ctx: &str, keys: &[&str]) -> Result<(), String> {
    for key in keys {
        if num(cell, ctx, key)? <= 0.0 {
            return Err(format!("{ctx}: non-positive {key}"));
        }
    }
    Ok(())
}
