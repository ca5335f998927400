//! The cross-rank [`PerfSummary`] aggregated by `core::Operator::run` —
//! the paper's §IV per-run readout (GPts/s, achieved GFlops/s vs. the
//! roofline ceiling, halo-wait share, message histograms).

use mpix_json::{json, Value};

use crate::{Diagnostic, MsgDir, MsgRecord, Section, TraceReport};

/// Message-size histogram with power-of-two byte buckets.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MsgHistogram {
    /// `(bucket_max_bytes, messages)` sorted ascending; a message of `b`
    /// bytes lands in the smallest bucket with `bucket_max_bytes >= b`.
    pub buckets: Vec<(u64, u64)>,
}

impl MsgHistogram {
    /// Histogram of the *sent* messages in the given logs.
    pub fn of_sends<'a>(msgs: impl IntoIterator<Item = &'a MsgRecord>) -> MsgHistogram {
        let mut h = MsgHistogram::default();
        for m in msgs {
            if m.dir == MsgDir::Sent {
                h.add(m.bytes as u64);
            }
        }
        h
    }

    pub fn add(&mut self, bytes: u64) {
        let bucket = bytes.max(1).next_power_of_two();
        match self.buckets.binary_search_by_key(&bucket, |(b, _)| *b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|(_, n)| n).sum()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.buckets
                .iter()
                .map(|&(b, n)| json!({ "le_bytes": b, "count": n }))
                .collect(),
        )
    }

    pub fn from_json(v: &Value) -> Result<MsgHistogram, String> {
        let mut h = MsgHistogram::default();
        for e in v.as_array().ok_or("histogram not an array")? {
            h.buckets.push((
                e.get("le_bytes")
                    .and_then(Value::as_u64)
                    .ok_or("bucket missing le_bytes")?,
                e.get("count")
                    .and_then(Value::as_u64)
                    .ok_or("bucket missing count")?,
            ));
        }
        Ok(h)
    }

    fn render(&self) -> String {
        if self.buckets.is_empty() {
            return "(no messages)".to_string();
        }
        self.buckets
            .iter()
            .map(|&(b, n)| format!("≤{}: {n}", human_bytes(b)))
            .collect::<Vec<_>>()
            .join("  ")
    }
}

/// One rank's slice of the summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankPerf {
    pub rank: usize,
    /// Total wall seconds the executor attributed to this rank.
    pub total_secs: f64,
    pub points_updated: u64,
    /// Local throughput, points/s / 1e9.
    pub gpts: f64,
    /// Seconds per named section, indexed like [`Section::ALL`].
    pub sections: [f64; crate::NSECTIONS],
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// Comm-layer buffer allocations during the run (pool misses). Zero
    /// in steady state is the persistent halo-plan contract.
    pub bufs_allocated: u64,
    /// Payload bytes the comm layer physically copied during the run.
    pub bytes_copied: u64,
}

impl RankPerf {
    pub fn section_secs(&self, s: Section) -> f64 {
        self.sections[s.index()]
    }

    pub fn to_json(&self) -> Value {
        let sections: Value = Section::ALL
            .iter()
            .map(|s| (s.name(), self.sections[s.index()]))
            .collect();
        json!({
            "rank": self.rank,
            "total_secs": self.total_secs,
            "points_updated": self.points_updated,
            "gpts": self.gpts,
            "sections": sections,
            "msgs_sent": self.msgs_sent,
            "bytes_sent": self.bytes_sent,
            "bufs_allocated": self.bufs_allocated,
            "bytes_copied": self.bytes_copied,
        })
    }

    pub fn from_json(v: &Value) -> Result<RankPerf, String> {
        let mut sections = [0.0; crate::NSECTIONS];
        for (name, secs) in v.get("sections").and_then(Value::as_object).unwrap_or(&[]) {
            let s = Section::from_name(name).ok_or_else(|| format!("unknown section {name:?}"))?;
            sections[s.index()] = secs.as_f64().ok_or("section secs not a number")?;
        }
        Ok(RankPerf {
            rank: v
                .get("rank")
                .and_then(Value::as_u64)
                .ok_or("rank missing")? as usize,
            total_secs: v
                .get("total_secs")
                .and_then(Value::as_f64)
                .ok_or("total_secs missing")?,
            points_updated: v.get("points_updated").and_then(Value::as_u64).unwrap_or(0),
            gpts: v.get("gpts").and_then(Value::as_f64).unwrap_or(0.0),
            sections,
            msgs_sent: v.get("msgs_sent").and_then(Value::as_u64).unwrap_or(0),
            bytes_sent: v.get("bytes_sent").and_then(Value::as_u64).unwrap_or(0),
            bufs_allocated: v.get("bufs_allocated").and_then(Value::as_u64).unwrap_or(0),
            bytes_copied: v.get("bytes_copied").and_then(Value::as_u64).unwrap_or(0),
        })
    }
}

/// The aggregated performance readout of one `Operator::run`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PerfSummary {
    /// Operator/kernel label (e.g. `acoustic-so4`).
    pub kernel: String,
    /// Halo mode label (`basic`/`diag`/`full`).
    pub mode: String,
    pub ranks: usize,
    pub timesteps: i64,
    /// Backend of the executable that ran (`jit`, `bytecode`, `c`); empty
    /// when the summary was not produced by a run.
    pub backend: String,
    /// Compiled clusters in that executable.
    pub clusters: usize,
    /// Of those, clusters that ran on the bytecode fallback instead of
    /// the backend's own code (see [`engine`](Self::engine)).
    pub fallback_clusters: usize,
    /// Global points updated per step (sum over ranks / timesteps).
    pub points_per_step: u64,
    /// Wall time of the slowest rank.
    pub total_secs: f64,
    /// Aggregate throughput: total points updated / total_secs / 1e9.
    pub gpts: f64,
    /// Analytic flops per point (from the operation counts).
    pub flops_per_point: f64,
    /// Achieved GFlops/s = gpts * flops_per_point.
    pub gflops: f64,
    /// Operational intensity (flops/byte) of the kernel.
    pub oi: f64,
    /// Roofline ceiling `min(peak, bw·oi)` in GFlops/s, if a machine
    /// model was attached.
    pub roofline_gflops: Option<f64>,
    /// Name of the machine model behind the ceiling.
    pub roofline_machine: Option<String>,
    /// Share of the slowest rank's time spent in `halo.wait`.
    pub halo_wait_fraction: f64,
    /// Sent-message size histogram aggregated over ranks (this mode).
    pub histogram: MsgHistogram,
    pub per_rank: Vec<RankPerf>,
    /// Findings from the verification passes (`mpix-analysis`), when the
    /// run was gated by `ApplyOptions::verify`; empty otherwise.
    pub diagnostics: Vec<Diagnostic>,
}

impl PerfSummary {
    /// Assemble from per-rank reports. `flops_per_point`/`oi` come from
    /// the operator's op counts; the roofline fields may be filled in
    /// afterwards by whoever owns a machine model.
    pub fn from_reports(
        kernel: impl Into<String>,
        mode: impl Into<String>,
        timesteps: i64,
        flops_per_point: f64,
        oi: f64,
        rank_totals: &[(f64, u64)], // (total_secs, points_updated) per rank
        reports: &[TraceReport],
    ) -> PerfSummary {
        let ranks = rank_totals.len();
        let total_secs = rank_totals.iter().map(|(s, _)| *s).fold(0.0, f64::max);
        let total_points: u64 = rank_totals.iter().map(|(_, p)| *p).sum();
        let gpts = if total_secs > 0.0 {
            total_points as f64 / total_secs / 1e9
        } else {
            0.0
        };

        let mut per_rank = Vec::with_capacity(ranks);
        let mut histogram = MsgHistogram::default();
        for (rank, &(secs, points)) in rank_totals.iter().enumerate() {
            let report = reports.iter().find(|r| r.rank == rank);
            let mut rp = RankPerf {
                rank,
                total_secs: secs,
                points_updated: points,
                gpts: if secs > 0.0 {
                    points as f64 / secs / 1e9
                } else {
                    0.0
                },
                ..Default::default()
            };
            if let Some(r) = report {
                for s in Section::ALL {
                    rp.sections[s.index()] = r.section_secs(s);
                }
                rp.bufs_allocated = r.bufs_allocated;
                rp.bytes_copied = r.bytes_copied;
                for m in &r.messages {
                    if m.dir == MsgDir::Sent {
                        rp.msgs_sent += 1;
                        rp.bytes_sent += m.bytes as u64;
                        histogram.add(m.bytes as u64);
                    }
                }
            }
            per_rank.push(rp);
        }

        // Halo-wait share of the slowest rank (the paper's bottleneck view).
        let halo_wait_fraction = per_rank
            .iter()
            .max_by(|a, b| a.total_secs.total_cmp(&b.total_secs))
            .map(|r| {
                if r.total_secs > 0.0 {
                    r.section_secs(Section::HaloWait) / r.total_secs
                } else {
                    0.0
                }
            })
            .unwrap_or(0.0);

        PerfSummary {
            kernel: kernel.into(),
            mode: mode.into(),
            ranks,
            timesteps,
            backend: String::new(),
            clusters: 0,
            fallback_clusters: 0,
            points_per_step: if timesteps > 0 {
                total_points / timesteps as u64
            } else {
                0
            },
            total_secs,
            gpts,
            flops_per_point,
            gflops: gpts * flops_per_point,
            oi,
            roofline_gflops: None,
            roofline_machine: None,
            halo_wait_fraction,
            histogram,
            per_rank,
            diagnostics: Vec::new(),
        }
    }

    /// Attach a roofline ceiling (GFlops/s) from a machine model.
    pub fn with_roofline(mut self, machine: impl Into<String>, ceiling_gflops: f64) -> PerfSummary {
        self.roofline_machine = Some(machine.into());
        self.roofline_gflops = Some(ceiling_gflops);
        self
    }

    /// Name the engine that ran: the executable's backend, its cluster
    /// count, and how many of those clusters fell back to the bytecode
    /// interpreter.
    pub fn with_engine(
        mut self,
        backend: impl Into<String>,
        clusters: usize,
        fallback_clusters: usize,
    ) -> PerfSummary {
        self.backend = backend.into();
        self.clusters = clusters;
        self.fallback_clusters = fallback_clusters;
        self
    }

    /// The engine in one phrase: `jit`, or
    /// `jit (1/3 clusters on bytecode fallback)` when some fell back.
    pub fn engine(&self) -> String {
        if self.fallback_clusters == 0 {
            self.backend.clone()
        } else {
            format!(
                "{} ({}/{} clusters on bytecode fallback)",
                self.backend, self.fallback_clusters, self.clusters
            )
        }
    }

    /// Attach verification findings (the `mpix-analysis` pass output).
    pub fn with_diagnostics(mut self, diagnostics: Vec<Diagnostic>) -> PerfSummary {
        self.diagnostics = diagnostics;
        self
    }

    pub fn to_json(&self) -> Value {
        json!({
            "kernel": &self.kernel,
            "mode": &self.mode,
            "ranks": self.ranks,
            "timesteps": self.timesteps,
            "backend": &self.backend,
            "clusters": self.clusters,
            "fallback_clusters": self.fallback_clusters,
            "points_per_step": self.points_per_step,
            "total_secs": self.total_secs,
            "gpts": self.gpts,
            "flops_per_point": self.flops_per_point,
            "gflops": self.gflops,
            "oi": self.oi,
            "roofline_gflops": self.roofline_gflops,
            "roofline_machine": self.roofline_machine.clone(),
            "halo_wait_fraction": self.halo_wait_fraction,
            "histogram": self.histogram.to_json(),
            "per_rank": Value::Arr(self.per_rank.iter().map(RankPerf::to_json).collect()),
            "diagnostics": Value::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
        })
    }

    pub fn from_json(v: &Value) -> Result<PerfSummary, String> {
        let mut per_rank = Vec::new();
        for r in v.get("per_rank").and_then(Value::as_array).unwrap_or(&[]) {
            per_rank.push(RankPerf::from_json(r)?);
        }
        Ok(PerfSummary {
            kernel: v
                .get("kernel")
                .and_then(Value::as_str)
                .ok_or("kernel missing")?
                .to_string(),
            mode: v
                .get("mode")
                .and_then(Value::as_str)
                .ok_or("mode missing")?
                .to_string(),
            ranks: v
                .get("ranks")
                .and_then(Value::as_u64)
                .ok_or("ranks missing")? as usize,
            timesteps: v.get("timesteps").and_then(Value::as_i64).unwrap_or(0),
            backend: v
                .get("backend")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_string(),
            clusters: v.get("clusters").and_then(Value::as_u64).unwrap_or(0) as usize,
            fallback_clusters: v
                .get("fallback_clusters")
                .and_then(Value::as_u64)
                .unwrap_or(0) as usize,
            points_per_step: v
                .get("points_per_step")
                .and_then(Value::as_u64)
                .unwrap_or(0),
            total_secs: v.get("total_secs").and_then(Value::as_f64).unwrap_or(0.0),
            gpts: v.get("gpts").and_then(Value::as_f64).unwrap_or(0.0),
            flops_per_point: v
                .get("flops_per_point")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            gflops: v.get("gflops").and_then(Value::as_f64).unwrap_or(0.0),
            oi: v.get("oi").and_then(Value::as_f64).unwrap_or(0.0),
            roofline_gflops: v.get("roofline_gflops").and_then(Value::as_f64),
            roofline_machine: v
                .get("roofline_machine")
                .and_then(Value::as_str)
                .map(str::to_string),
            halo_wait_fraction: v
                .get("halo_wait_fraction")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            histogram: v
                .get("histogram")
                .map(MsgHistogram::from_json)
                .transpose()?
                .unwrap_or_default(),
            per_rank,
            diagnostics: v
                .get("diagnostics")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .map(Diagnostic::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let engine = match self.engine() {
            e if e.is_empty() => String::new(),
            e => format!(" · engine={e}"),
        };
        out.push_str(&format!(
            "PerfSummary — {} · mode={} · ranks={} · nt={}{engine}\n",
            self.kernel, self.mode, self.ranks, self.timesteps
        ));
        let roof = match (self.roofline_gflops, &self.roofline_machine) {
            (Some(c), Some(m)) if c > 0.0 => format!(
                " · roofline {c:.1} GFlops/s [{m}] ({:.1}% achieved)",
                100.0 * self.gflops / c
            ),
            _ => String::new(),
        };
        out.push_str(&format!(
            "  {:.4} s · {:.4} GPts/s · {:.2} GFlops/s (OI {:.2}){roof} · halo.wait {:.1}%\n",
            self.total_secs,
            self.gpts,
            self.gflops,
            self.oi,
            100.0 * self.halo_wait_fraction
        ));
        out.push_str(&format!(
            "  {:>4}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>8}  {:>6}  {:>9}\n",
            "rank",
            "compute",
            "halo.pack",
            "halo.send",
            "halo.wait",
            "halo.unpk",
            "remainder",
            "source",
            "receiver",
            "GPts/s",
            "msgs",
            "sent"
        ));
        for r in &self.per_rank {
            out.push_str(&format!(
                "  {:>4}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}  {:>8.4}  {:>6}  {:>9}\n",
                r.rank,
                fmt_secs(r.section_secs(Section::Compute)),
                fmt_secs(r.section_secs(Section::HaloPack)),
                fmt_secs(r.section_secs(Section::HaloSend)),
                fmt_secs(r.section_secs(Section::HaloWait)),
                fmt_secs(r.section_secs(Section::HaloUnpack)),
                fmt_secs(r.section_secs(Section::Remainder)),
                fmt_secs(r.section_secs(Section::Source)),
                fmt_secs(r.section_secs(Section::Receiver)),
                r.gpts,
                r.msgs_sent,
                human_bytes(r.bytes_sent),
            ));
        }
        out.push_str(&format!("  messages: {}\n", self.histogram.render()));
        out
    }
}

fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "-".to_string()
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

fn human_bytes(b: u64) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgDir, MsgRecord, TraceLevel, Tracer};

    fn sample_summary() -> PerfSummary {
        let mut tr0 = Tracer::new(TraceLevel::Full);
        tr0.begin_step(0);
        tr0.add_secs(Section::Compute, 0.08);
        tr0.add_secs(Section::HaloWait, 0.02);
        let r0 = tr0.finish(
            0,
            vec![
                MsgRecord {
                    dir: MsgDir::Sent,
                    peer: 1,
                    tag: 64,
                    bytes: 300,
                    latency_secs: 0.0,
                },
                MsgRecord {
                    dir: MsgDir::Sent,
                    peer: 1,
                    tag: 65,
                    bytes: 5000,
                    latency_secs: 0.0,
                },
                MsgRecord {
                    dir: MsgDir::Received,
                    peer: 1,
                    tag: 64,
                    bytes: 300,
                    latency_secs: 1e-5,
                },
            ],
        );
        let mut tr1 = Tracer::new(TraceLevel::Full);
        tr1.begin_step(0);
        tr1.add_secs(Section::Compute, 0.1);
        let r1 = tr1.finish(
            1,
            vec![MsgRecord {
                dir: MsgDir::Sent,
                peer: 0,
                tag: 64,
                bytes: 300,
                latency_secs: 0.0,
            }],
        );
        PerfSummary::from_reports(
            "acoustic-so4",
            "diag",
            2,
            36.0,
            0.8,
            &[(0.1, 1_000_000), (0.1, 1_000_000)],
            &[r0, r1],
        )
        .with_roofline("archer2-node", 150.0)
        .with_engine("jit", 3, 1)
    }

    #[test]
    fn aggregates_are_consistent() {
        let s = sample_summary();
        assert_eq!(s.ranks, 2);
        assert_eq!(s.points_per_step, 1_000_000);
        assert!((s.gpts - 2_000_000.0 / 0.1 / 1e9).abs() < 1e-12);
        assert!((s.gflops - s.gpts * 36.0).abs() < 1e-12);
        // Slowest-rank tie → either rank; both have total 0.1.
        assert!(s.halo_wait_fraction <= 0.2 + 1e-12);
        assert_eq!(s.histogram.total(), 3);
        // 300 B → 512 bucket (x2), 5000 B → 8192 bucket.
        assert_eq!(s.histogram.buckets, vec![(512, 2), (8192, 1)]);
        assert_eq!(s.per_rank[0].msgs_sent, 2);
        assert_eq!(s.per_rank[0].bytes_sent, 5300);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let s = sample_summary();
        let text = s.to_json().pretty();
        let back = PerfSummary::from_json(&mpix_json::Value::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn engine_round_trips_through_json_and_table() {
        let s = sample_summary();
        assert_eq!(s.engine(), "jit (1/3 clusters on bytecode fallback)");
        let back = PerfSummary::from_json(&s.to_json()).unwrap();
        assert_eq!(
            (back.backend.as_str(), back.clusters, back.fallback_clusters),
            ("jit", 3, 1)
        );
        assert_eq!(back.engine(), s.engine());
        assert!(
            s.table()
                .contains("engine=jit (1/3 clusters on bytecode fallback)"),
            "{}",
            s.table()
        );
        let native = s.clone().with_engine("jit", 3, 0);
        assert_eq!(native.engine(), "jit");
        let back = PerfSummary::from_json(&native.to_json()).unwrap();
        assert_eq!(back, native);
        assert!(
            native.table().contains("engine=jit\n"),
            "{}",
            native.table()
        );
        // Summaries that predate the engine fields still parse.
        let mut old = native.to_json();
        if let Value::Obj(m) = &mut old {
            m.retain(|(k, _)| !["backend", "clusters", "fallback_clusters"].contains(&k.as_str()));
        }
        let back = PerfSummary::from_json(&old).unwrap();
        assert_eq!((back.engine(), back.clusters), (String::new(), 0));
    }

    #[test]
    fn table_renders_all_ranks_and_roofline() {
        let s = sample_summary();
        let t = s.table();
        assert!(t.contains("acoustic-so4"), "{t}");
        assert!(t.contains("roofline 150.0 GFlops/s"), "{t}");
        assert!(t.lines().count() > 4, "{t}");
        assert!(t.contains("halo.wait"), "{t}");
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = MsgHistogram::default();
        for b in [1u64, 2, 3, 1024, 1025, 0] {
            h.add(b);
        }
        assert!(h.buckets.iter().all(|(b, _)| b.is_power_of_two()));
        assert_eq!(h.total(), 6);
    }
}
