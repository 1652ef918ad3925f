//! The benchmark's own spans, kept in memory and written out at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One span: a named interval, the span that caused it, the job it
/// belongs to, and for job spans the job's key.
struct Span {
    name: &'static str,
    key: Option<String>,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    job: Option<usize>,
}

/// Span store; span ids are indices. A disabled store records nothing.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    list: Vec<Span>,
}

impl Spans {
    /// Empty store; times are written relative to `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Spans {
        Spans {
            epoch,
            enabled,
            list: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a finished span and return its id.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: Option<usize>,
    ) -> usize {
        if !self.enabled {
            return 0;
        }
        self.list.push(Span {
            name,
            key: None,
            start,
            end,
            parent,
            job,
        });
        self.list.len() - 1
    }

    /// Open a span that [`Spans::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: Option<usize>) -> usize {
        let now = Instant::now();
        self.add(name, now, now, parent, job)
    }

    /// End span `id` now.
    pub fn close(&mut self, id: usize) {
        if let Some(sp) = self.list.get_mut(id) {
            sp.end = Instant::now();
        }
    }

    /// Name the job span `id` by its job's reference key.
    pub fn set_key(&mut self, id: usize, key: String) {
        if let Some(sp) = self.list.get_mut(id) {
            sp.key = Some(key);
        }
    }

    /// One JSON object per line: `{"id":..,"name":..,"start_s":..,
    /// "end_s":..,"parent":..,"job":..,"key":..}`, times in seconds since
    /// process start.
    pub fn jsonl(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        let mut s = String::new();
        for (id, sp) in self.list.iter().enumerate() {
            let key = sp
                .key
                .as_ref()
                .map_or("null".to_string(), |k| format!("\"{k}\""));
            let _ = writeln!(
                s,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\"job\":{},\"key\":{key}}}",
                sp.name,
                sp.start.duration_since(self.epoch).as_secs_f64(),
                sp.end.duration_since(self.epoch).as_secs_f64(),
                opt(sp.parent),
                opt(sp.job)
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_write_one_valid_json_object_per_line() {
        let epoch = Instant::now();
        let mut spans = Spans::new(epoch, true);
        let pass = spans.open("pass", None, None);
        let job = spans.add(
            "job",
            epoch,
            epoch + Duration::from_millis(5),
            Some(pass),
            Some(0),
        );
        spans.set_key(job, "npb/IS_c16".to_string());
        spans.close(pass);
        let text = spans.jsonl();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            desim::obs::json::parse(line).expect("valid JSON");
        }
        let mut off = Spans::new(epoch, false);
        let id = off.open("pass", None, None);
        off.close(id);
        off.set_key(id, "k".to_string());
        assert_eq!(off.jsonl(), "");
        assert!(text.lines().nth(1).unwrap().contains(
            "\"start_s\":0,\"end_s\":0.005,\"parent\":0,\"job\":0,\"key\":\"npb/IS_c16\"}"
        ));
    }
}
