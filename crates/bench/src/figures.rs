//! Every figure and the ablation table at seeds 1–4, as one report.
//!
//! [`run`] drives each seed of [`SEEDS`] through the figure modules in
//! the order the paper presents them. Fig. 6, the indoor suite and the
//! ablation battery run on the shared sweep pool, so the result is the
//! same at any worker count. It returns two things:
//!
//! * a [`FiguresReport`], committed as `BENCH_figures.json`: every number
//!   the figure text prints, per seed, at full precision and free of
//!   wall-clock fields;
//! * the first seed's text rendering (`figures.txt`), made from the same
//!   in-memory results. Only the glyph strips of Figs. 3 and 8 read data
//!   the report does not keep: the sampled intervals and the waveforms.

use crate::ablation::{self, AblationRow};
use crate::fig06::{self, SweepPoint, TimelineRow};
use crate::{fig03, fig08, indoor, outdoor};
use enviromic::metrics::{render_series, ContourGrid};
use enviromic::sim::mote::JitterSummary;
use enviromic::types::NodeId;
use serde::{Deserialize, Serialize};

/// The seeds every figure runs at; the text renders the first.
pub const SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Runs per Fig. 6 point, as in the paper.
const FIG06_RUNS: u64 = 15;

/// Duration of the indoor suite behind Figs. 10–14 and the headline,
/// seconds.
const INDOOR_SECS: f64 = 4400.0;

/// Duration of each ablation run, seconds.
const ABLATION_SECS: f64 = 2200.0;

/// Duration of the outdoor run behind Figs. 16–18, seconds (3 h).
const OUTDOOR_SECS: f64 = 10_800.0;

/// `BENCH_figures.json`: the run lengths, then every figure per seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiguresReport {
    /// Runs per Fig. 6 point.
    pub fig06_runs: u64,
    /// Indoor suite duration, seconds.
    pub indoor_secs: f64,
    /// Ablation run duration, seconds.
    pub ablation_secs: f64,
    /// Outdoor run duration, seconds.
    pub outdoor_secs: f64,
    /// One entry per seed, in [`SEEDS`] order.
    pub seeds: Vec<SeedFigures>,
}

/// Every figure at one seed. Contours hold their cells row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedFigures {
    /// The seed every run below derives from.
    pub seed: u64,
    /// Fig. 3: interval statistics of panels (a)–(c), jiffies.
    pub fig03: Vec<JitterSummary>,
    /// Fig. 6: one point per (`Trc`, `Dta`), `Trc`-major.
    pub fig06: Vec<SweepPoint>,
    /// Fig. 7: one run's recording timeline.
    pub fig07: Fig07,
    /// Fig. 8: how well the stitched voice recording matches the
    /// reference.
    pub fig08: Fig08,
    /// Fig. 10: cumulative miss ratio per setting.
    pub fig10: Series,
    /// Fig. 11: redundancy ratio per setting.
    pub fig11: Series,
    /// Fig. 12: cumulative control messages per cooperative setting.
    pub fig12: Series,
    /// Fig. 13: `(t, chunks per cell)` at 34 %, 68 % and 100 % of the
    /// run, β_max = 2.
    pub fig13: Vec<(f64, ContourGrid)>,
    /// Fig. 14: control messages sent per cell, β_max = 2.
    pub fig14: ContourGrid,
    /// The headline comparison with uncoordinated recording.
    pub headline: Headline,
    /// The ablation table, one row per configuration.
    pub ablation: Vec<AblationRow>,
    /// Fig. 16: seconds of audio recorded in each minute of the run.
    pub fig16: Vec<f64>,
    /// Fig. 17: audio bytes recorded per cell.
    pub fig17: ContourGrid,
    /// Fig. 18: where the hotspot's recordings ended up.
    pub fig18: Fig18,
}

/// Fig. 7: the event window and the task recordings inside it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig07 {
    /// `(start, stop)` of the acoustic event, seconds.
    pub event_s: (f64, f64),
    /// Task recordings in start order.
    pub rows: Vec<TimelineRow>,
}

/// Fig. 8: the scores of [`fig08::VoiceResult`], without its waveforms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig08 {
    /// Best normalized envelope cross-correlation.
    pub xcorr: f64,
    /// Fraction of the event covered by stitched audio.
    pub coverage: f64,
    /// Distinct recorders contributing chunks.
    pub recorders: usize,
}

/// A time series per setting, all sampled at the same instants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Sample instants, seconds.
    pub t_s: Vec<f64>,
    /// `(setting label, value at each instant)` in legend order.
    pub columns: Vec<(String, Vec<f64>)>,
}

impl Series {
    /// Splits `(label, [(t, value)])` series that share their instants.
    fn new(labelled: Vec<(String, Vec<(f64, f64)>)>) -> Series {
        let t_s = labelled
            .first()
            .map_or_else(Vec::new, |(_, s)| s.iter().map(|&(t, _)| t).collect());
        let columns = labelled
            .into_iter()
            .map(|(label, s)| (label, s.into_iter().map(|(_, v)| v).collect()))
            .collect();
        Series { t_s, columns }
    }

    fn render(&self, title: &str) -> String {
        let labels: Vec<&str> = self.columns.iter().map(|(l, _)| l.as_str()).collect();
        let rows: Vec<(f64, Vec<f64>)> = self
            .t_s
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, self.columns.iter().map(|(_, v)| v[i]).collect()))
            .collect();
        format!("{title}\n{}", render_series("t(s)", &labels, &rows))
    }
}

/// The headline: whole-run miss ratios and the β_max = 2 gains over
/// the uncoordinated baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Headline {
    /// `(setting label, whole-run miss ratio)` in Fig. 10 order.
    pub final_miss: Vec<(String, f64)>,
    /// Baseline miss ratio over lb-bmax2's.
    pub miss_improvement: f64,
    /// lb-bmax2's recorded fraction over the baseline's.
    pub data_factor: f64,
}

impl Headline {
    fn render(&self) -> String {
        let mut out =
            String::from("Headline — effective storage capacity vs uncoordinated recording\n");
        for (label, miss) in &self.final_miss {
            out.push_str(&format!(
                "  {label:<12} final miss ratio {miss:.3}  (recorded {:.3})\n",
                1.0 - miss
            ));
        }
        out.push_str(&format!(
            "  miss-ratio improvement (baseline/lb-bmax2): {:.2}x\n  \
             recorded-data factor   (lb-bmax2/baseline): {:.2}x\n",
            self.miss_improvement, self.data_factor
        ));
        out
    }
}

/// Fig. 18: the hotspot recorder and where its data ended up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig18 {
    /// The node that recorded the most audio.
    pub hotspot: NodeId,
    /// KB of the hotspot's recordings held per cell at the end.
    pub holdings_kb: ContourGrid,
}

impl SeedFigures {
    /// The figure text in paper order, one blank line after each figure.
    /// `panels` and `voice` supply the Fig. 3 and Fig. 8 glyph strips.
    fn render(&self, panels: &[fig03::Panel], voice: &fig08::VoiceResult) -> String {
        let mut blocks = vec![
            fig03::render(panels),
            fig06::render_sweep(&self.fig06),
            fig06::render_timeline(&self.fig07.rows, self.fig07.event_s),
            fig08::render(voice),
            self.fig10
                .render("Fig. 10 — cumulative recording miss ratio"),
            self.fig11.render("Fig. 11 — recording redundancy ratio"),
            self.fig12.render("Fig. 12 — cumulative control messages"),
        ];
        blocks.extend(self.fig13.iter().map(|(t, grid)| {
            grid.render(&format!(
                "Fig. 13 — storage occupancy (chunks) at t = {t:.0} s, beta_max = 2"
            ))
        }));
        blocks.extend([
            self.fig14
                .render("Fig. 14 — control messages sent per node, beta_max = 2"),
            self.headline.render(),
            ablation::render(&self.ablation),
            outdoor::render_fig16(&self.fig16),
            self.fig17
                .render("Fig. 17 — acoustic data generated per location (bytes)"),
            self.fig18.holdings_kb.render(&format!(
                "Fig. 18 — final holdings (KB) of data recorded by hotspot {}",
                self.fig18.hotspot
            )),
        ]);
        blocks.iter().map(|block| format!("{block}\n")).collect()
    }
}

/// Runs every figure at `seed` on `jobs` workers; returns the seed's
/// report entry and its text.
fn run_seed(seed: u64, jobs: usize) -> (SeedFigures, String) {
    let panels = fig03::run(seed);
    let fig06 = fig06::run_sweep(seed, FIG06_RUNS, jobs);
    let (rows, event_s) = fig06::run_timeline(seed);
    let voice = fig08::run(seed);

    let suite = indoor::run_suite_jobs(seed, INDOOR_SECS, jobs);
    let sample = INDOOR_SECS / 8.0;
    let (miss_improvement, data_factor) = suite.headline_improvement();
    let fig10 = Series::new(suite.fig10_miss_series(sample));
    let fig11 = Series::new(suite.fig11_redundancy_series(sample));
    let fig12 = Series::new(suite.fig12_message_series(sample));
    let fig13 = suite.fig13_contours(&[INDOOR_SECS * 0.34, INDOOR_SECS * 0.68, INDOOR_SECS]);
    let fig14 = suite.fig14_contour();
    let headline = Headline {
        final_miss: suite.final_miss_ratios(),
        miss_improvement,
        data_factor,
    };
    // The suite's five traces go before the next runs allocate theirs.
    drop(suite);

    let ablation = ablation::run_jobs(seed, ABLATION_SECS, jobs);
    let outdoor = outdoor::run(seed, OUTDOOR_SECS);
    let (hotspot, holdings_kb) = outdoor.fig18_migration_map();
    let figures = SeedFigures {
        seed,
        fig03: panels.iter().map(|p| p.summary).collect(),
        fig06,
        fig07: Fig07 { event_s, rows },
        fig08: Fig08 {
            xcorr: voice.xcorr,
            coverage: voice.coverage,
            recorders: voice.recorders,
        },
        fig10,
        fig11,
        fig12,
        fig13,
        fig14,
        headline,
        ablation,
        fig16: outdoor.fig16_activity_per_minute(),
        fig17: outdoor.fig17_generated_contour(),
        fig18: Fig18 {
            hotspot,
            holdings_kb,
        },
    };
    let text = figures.render(&panels, &voice);
    (figures, text)
}

/// Runs every figure at every seed of [`SEEDS`] on `jobs` worker
/// threads. Returns the report and the first seed's text; both are the
/// same at any `jobs`.
#[must_use]
pub fn run(jobs: usize) -> (FiguresReport, String) {
    let (seeds, mut texts): (Vec<_>, Vec<_>) =
        SEEDS.iter().map(|&seed| run_seed(seed, jobs)).unzip();
    let report = FiguresReport {
        fig06_runs: FIG06_RUNS,
        indoor_secs: INDOOR_SECS,
        ablation_secs: ABLATION_SECS,
        outdoor_secs: OUTDOOR_SECS,
        seeds,
    };
    (report, texts.swap_remove(0))
}
