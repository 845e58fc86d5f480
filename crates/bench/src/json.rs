//! Minimal JSON emission for figure rows.
//!
//! The workspace builds offline with no external dependencies, so the
//! `figures` binary serializes its rows through this hand-rolled trait
//! instead of `serde_json`. Output is compact, valid JSON; only the types
//! the figure rows actually contain are supported.

use std::time::Duration;

use dmt_api::{Breakdown, Counters, EventCounts, RunReport, Tid};

/// Types that can write themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// This value as a JSON string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Writes `value` to `<dir>/<name>.json`, creating `dir`, and notes the
/// path on stderr. Best effort: these reports are a by-product of a run,
/// never its verdict.
pub fn dump<T: ToJson>(dir: &str, name: &str, value: &T) {
    let _ = std::fs::create_dir_all(dir);
    let path = format!("{dir}/{name}.json");
    if std::fs::write(&path, value.to_json()).is_ok() {
        eprintln!("[json: {path}]");
    }
}

/// Writes a JSON string literal with the escapes JSON requires.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_int {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        })+
    };
}

json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&format!("{self}"));
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl ToJson for &str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

impl ToJson for Duration {
    fn write_json(&self, out: &mut String) {
        self.as_secs_f64().write_json(out);
    }
}

impl ToJson for Tid {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

/// Writes `(key, value)` pairs as one JSON object, in order.
fn write_fields<'a>(pairs: impl Iterator<Item = (&'a str, u64)>, out: &mut String) {
    out.push('{');
    for (i, (key, count)) in pairs.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(key, out);
        out.push(':');
        count.write_json(out);
    }
    out.push('}');
}

impl ToJson for EventCounts {
    fn write_json(&self, out: &mut String) {
        write_fields(self.nonzero().map(|(kind, n)| (kind.name(), n)), out);
    }
}

/// A `metrics!` struct of `dmt_api` is an object of its `FIELDS`.
macro_rules! json_metrics {
    ($($ty:ty),+) => {
        $(impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                let names = <$ty>::FIELDS.iter().map(|(name, _)| *name);
                write_fields(names.zip(self.values()), out);
            }
        })+
    };
}

json_metrics!(Breakdown, Counters);

/// Implements [`ToJson`] for a struct as an object of its named fields.
/// Exported so downstream tools (the `dmt-stress` harness) can serialize
/// their own report types without a serde dependency.
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                out.push('{');
                let mut first = true;
                $(
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    $crate::json::write_str(stringify!($field), out);
                    out.push(':');
                    self.$field.write_json(out);
                )+
                let _ = first;
                out.push('}');
            }
        }
    };
}

/// Declares a struct and implements [`ToJson`] for it as an object of all
/// its fields in declaration order, so a report type's field list is
/// written once. Types whose JSON omits fields, or that live in another
/// crate, use [`json_struct!`] beside the definition instead.
#[macro_export]
macro_rules! json_record {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),+ $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),+
        }
        $crate::json_struct!($name { $($field),+ });
    };
}

json_struct!(RunReport {
    virtual_cycles,
    wall,
    breakdown,
    per_thread,
    counters,
    peak_pages,
    peak_versions,
    peak_clock_history,
    commit_log_hash,
    schedule_hash,
    events,
    threads,
    perturb_seed,
    perturb_plan,
    panics,
    fault,
    degraded
});

json_struct!(dmt_trace::Replayed {
    path,
    workload,
    runtime,
    recorded_events,
    replayed_events,
    recorded_hash,
    replayed_hash,
    checkpoints_passed,
    checkpoints_total,
    recorded_output_hash,
    replayed_output_hash,
    recorded_commit_log_hash,
    replayed_commit_log_hash,
    output_match,
    commit_log_match,
    divergence
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let mut s = String::new();
        write_str("a\"b\\c\nd", &mut s);
        assert_eq!(s, r#""a\"b\\c\nd""#);
    }

    #[test]
    fn scalars_and_containers() {
        assert_eq!(7u64.to_json(), "7");
        assert_eq!(true.to_json(), "true");
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(Option::<u64>::None.to_json(), "null");
        assert_eq!(vec![1u64, 2].to_json(), "[1,2]");
        assert_eq!((Tid(3), 9u64).to_json(), "[3,9]");
    }

    #[test]
    fn counters_render_every_field_in_order() {
        let json = Counters {
            token_wake_loops: 7,
            ..Counters::default()
        }
        .to_json();
        let keys: Vec<String> = Counters::FIELDS
            .iter()
            .map(|(name, _)| {
                let v = if *name == "token_wake_loops" { 7 } else { 0 };
                format!("\"{name}\":{v}")
            })
            .collect();
        assert_eq!(json, format!("{{{}}}", keys.join(",")));
        assert!(json.contains("\"token_wake_loops\":7"));
    }

    #[test]
    fn structs_render_as_objects() {
        let row = crate::Fig13Bar {
            benchmark: "kmeans".into(),
            optimization: "coarsening".into(),
            speedup: 2.0,
        };
        assert_eq!(
            row.to_json(),
            r#"{"benchmark":"kmeans","optimization":"coarsening","speedup":2}"#
        );
    }
}
