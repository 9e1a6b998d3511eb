//! Per-figure analysis pipelines and renderers.
//!
//! One plain-data struct per paper artifact (Figures 2–9 plus the headline
//! inline statistics), each with a fallible `from_report` constructor, a
//! `render()` method producing the aligned-text table, and a
//! `data_table()` whose `render_csv()` — what [`RenderedFigure::csv`]
//! returns — feeds external plotting. EXPERIMENTS.md records
//! paper-vs-measured for each of these.
//!
//! Every artifact is also exposed as a registered [`Figure`]
//! ([`FigureRegistry::classic`] holds the paper's nine;
//! [`FigureRegistry::extended`] adds the misconfiguration summary), so
//! the figures CLI and golden tests drive them uniformly through the
//! registry. [`ZombieFigure`] is deliberately *not* part of `extended()`:
//! it is the demonstration that a custom metric+figure pair registers
//! through the public APIs alone (`.register(ZombieFigure)`, as the
//! figures CLI does).
//!
//! Every figure the CLI registers must measure something: the figures
//! golden test builds each one on several tiny seeds and the named
//! scenario worlds, and fails when a figure, or a row of a summary
//! figure, reads the same (or zero) on all of them, unless its exception
//! table says why.

use crate::engine::{ReportError, SurveyReport};
use crate::render::{Figure, FigureError, FigureRegistry, RenderedFigure};
use crate::topology::GTLDS;
use perils_core::metric::columns;
use perils_core::misconfig::{
    FLAG_DEEP_DEPENDENCY, FLAG_SINGLE_OPERATOR, FLAG_SINGLE_SERVER, FLAG_UNRESOLVABLE_NS,
};
use perils_dns::name::{name, DnsName};
use perils_util::stats::{Cdf, RankCurve, Summary};
use perils_util::table::{fmt_f64, fmt_percent, Align, Table};

/// Figure 2: CDF of TCB sizes, all names vs. top-500.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `(tcb size, percent of names ≤ size)` for all names.
    pub all_points: Vec<(f64, f64)>,
    /// Same for the top-500 subset.
    pub top500_points: Vec<(f64, f64)>,
    /// Summary over all names.
    pub all: Summary,
    /// Summary over the top-500.
    pub top500: Summary,
    /// Fraction of all names with TCB > 200.
    pub frac_gt_200: f64,
    /// Fraction of top-500 names with TCB > 200.
    pub top500_frac_gt_200: f64,
}

impl Fig2 {
    /// Computes Figure 2 from a report containing [`columns::TCB_SIZE`].
    pub fn from_report(report: &SurveyReport) -> Result<Fig2, ReportError> {
        let tcb_sizes = report.try_counts(columns::TCB_SIZE)?;
        let all_cdf = Cdf::of_counts(tcb_sizes);
        let top500_sizes = report.top500_of(tcb_sizes);
        let top_cdf = Cdf::of_counts(&top500_sizes);
        Ok(Fig2 {
            all_points: all_cdf.plot_points(64),
            top500_points: top_cdf.plot_points(64),
            all: Summary::of_counts(tcb_sizes),
            top500: Summary::of_counts(&top500_sizes),
            frac_gt_200: all_cdf.fraction_above(200.0),
            top500_frac_gt_200: top_cdf.fraction_above(200.0),
        })
    }
    /// Renders the figure as a table of CDF points plus the summary row.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["tcb size", "all names CDF", "top-500 CDF"]).align(vec![
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for &(x, pct) in &self.all_points {
            // Step-function lookup: the top-500 CDF value at this x is the
            // last plot point at or below it.
            let top_pct = self
                .top500_points
                .iter()
                .take_while(|&&(tx, _)| tx <= x)
                .last()
                .map(|&(_, p)| p)
                .unwrap_or(0.0);
            t.row(vec![
                format!("{x:.0}"),
                format!("{pct:.1}%"),
                format!("{top_pct:.1}%"),
            ]);
        }
        format!(
            "Figure 2 — Size of TCB (CDF)\n{}\nall: median {} mean {} | >200: {} ; top-500: mean {} | >200: {}\n",
            t.render(),
            fmt_f64(self.all.median, 0),
            fmt_f64(self.all.mean, 1),
            fmt_percent(self.frac_gt_200),
            fmt_f64(self.top500.mean, 1),
            fmt_percent(self.top500_frac_gt_200),
        )
    }

    /// The CSV-shaped data table with `series,x,y` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["series", "tcb_size", "cdf_percent"]);
        for &(x, y) in &self.all_points {
            t.row(vec!["all".to_string(), format!("{x}"), format!("{y}")]);
        }
        for &(x, y) in &self.top500_points {
            t.row(vec!["top500".to_string(), format!("{x}"), format!("{y}")]);
        }
        t
    }
}

/// A per-TLD mean TCB bar (Figures 3 and 4).
#[derive(Debug, Clone)]
pub struct TldBar {
    /// TLD label.
    pub tld: String,
    /// Names surveyed under it.
    pub names: usize,
    /// Mean TCB size.
    pub mean_tcb: f64,
}

fn tld_means(
    report: &SurveyReport,
    tcb_sizes: &[usize],
    keep: impl Fn(&str) -> bool,
) -> Vec<TldBar> {
    use std::collections::BTreeMap;
    let mut sums: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for (i, survey_name) in report.world.names.iter().enumerate() {
        let tld = survey_name.tld().to_string();
        if keep(&tld) {
            let entry = sums.entry(tld).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += tcb_sizes[i] as u64;
        }
    }
    sums.into_iter()
        .map(|(tld, (count, total))| TldBar {
            tld,
            names: count,
            mean_tcb: total as f64 / count.max(1) as f64,
        })
        .collect()
}

/// Figure 3: mean TCB per gTLD, in the paper's plotted order.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// Bars in the paper's order (aero, int, name, mil, info, edu, biz,
    /// gov, org, net, com, coop).
    pub bars: Vec<TldBar>,
    /// Mean of the per-gTLD means (the paper's "gTLD average 87").
    pub group_mean: f64,
}

impl Fig3 {
    /// Computes Figure 3 from a report containing [`columns::TCB_SIZE`].
    pub fn from_report(report: &SurveyReport) -> Result<Fig3, ReportError> {
        let tcb_sizes = report.try_counts(columns::TCB_SIZE)?;
        let mut bars = tld_means(report, tcb_sizes, |tld| GTLDS.contains(&tld));
        bars.sort_by_key(|bar| {
            GTLDS
                .iter()
                .position(|g| *g == bar.tld)
                .unwrap_or(usize::MAX)
        });
        let group_mean = if bars.is_empty() {
            0.0
        } else {
            bars.iter().map(|b| b.mean_tcb).sum::<f64>() / bars.len() as f64
        };
        Ok(Fig3 { bars, group_mean })
    }
    /// Renders the bar table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["gTLD", "names", "mean TCB"]).align(vec![
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
        for bar in &self.bars {
            t.row(vec![
                bar.tld.clone(),
                bar.names.to_string(),
                fmt_f64(bar.mean_tcb, 1),
            ]);
        }
        format!(
            "Figure 3 — Average TCB size for gTLD names\n{}\ngroup mean: {}\n",
            t.render(),
            fmt_f64(self.group_mean, 1)
        )
    }

    /// The CSV-shaped data table with `tld,names,mean_tcb` rows.
    pub fn data_table(&self) -> Table {
        tld_bar_table(&self.bars)
    }
}

fn tld_bar_table(bars: &[TldBar]) -> Table {
    let mut t = Table::new(vec!["tld", "names", "mean_tcb"]);
    for bar in bars {
        t.row(vec![
            bar.tld.clone(),
            bar.names.to_string(),
            format!("{}", bar.mean_tcb),
        ]);
    }
    t
}

/// Figure 4: the fifteen ccTLDs with the largest mean TCBs.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// The worst fifteen, descending.
    pub bars: Vec<TldBar>,
    /// Mean of per-ccTLD means over all ccTLDs (the paper's 209).
    pub group_mean: f64,
}

impl Fig4 {
    /// Computes Figure 4 from a report containing [`columns::TCB_SIZE`].
    pub fn from_report(report: &SurveyReport) -> Result<Fig4, ReportError> {
        let tcb_sizes = report.try_counts(columns::TCB_SIZE)?;
        let mut bars = tld_means(report, tcb_sizes, |tld| !GTLDS.contains(&tld));
        let group_mean = if bars.is_empty() {
            0.0
        } else {
            bars.iter().map(|b| b.mean_tcb).sum::<f64>() / bars.len() as f64
        };
        bars.sort_by(|a, b| b.mean_tcb.partial_cmp(&a.mean_tcb).expect("finite"));
        bars.truncate(15);
        Ok(Fig4 { bars, group_mean })
    }
    /// Renders the bar table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["ccTLD", "names", "mean TCB"]).align(vec![
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
        for bar in &self.bars {
            t.row(vec![
                bar.tld.clone(),
                bar.names.to_string(),
                fmt_f64(bar.mean_tcb, 1),
            ]);
        }
        format!(
            "Figure 4 — Average TCB size for the 15 most vulnerable ccTLDs\n{}\nccTLD group mean: {}\n",
            t.render(),
            fmt_f64(self.group_mean, 1)
        )
    }

    /// The CSV-shaped data table with `tld,names,mean_tcb` rows.
    pub fn data_table(&self) -> Table {
        tld_bar_table(&self.bars)
    }
}

/// Figure 5: CDF of the number of vulnerable TCB members.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// `(count, percent ≤ count)` for all names.
    pub all_points: Vec<(f64, f64)>,
    /// Same for the top-500.
    pub top500_points: Vec<(f64, f64)>,
    /// Fraction of names with ≥1 vulnerable TCB member (the paper's 45%).
    pub frac_with_vulnerable: f64,
    /// Mean vulnerable members (the paper's 4.1).
    pub mean_vulnerable: f64,
    /// Mean for the top-500 (the paper's 7.6).
    pub top500_mean_vulnerable: f64,
}

impl Fig5 {
    /// Computes Figure 5 from a report containing
    /// [`columns::VULNERABLE_IN_TCB`].
    pub fn from_report(report: &SurveyReport) -> Result<Fig5, ReportError> {
        let vulnerable = report.try_counts(columns::VULNERABLE_IN_TCB)?;
        let cdf = Cdf::of_counts(vulnerable);
        let top = report.top500_of(vulnerable);
        let top_cdf = Cdf::of_counts(&top);
        Ok(Fig5 {
            all_points: cdf.plot_points(64),
            top500_points: top_cdf.plot_points(64),
            frac_with_vulnerable: cdf.fraction_above(0.0),
            mean_vulnerable: Summary::of_counts(vulnerable).mean,
            top500_mean_vulnerable: Summary::of_counts(&top).mean,
        })
    }
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["vulnerable in TCB", "all names CDF"])
            .align(vec![Align::Right, Align::Right]);
        for &(x, pct) in &self.all_points {
            t.row(vec![format!("{x:.0}"), format!("{pct:.1}%")]);
        }
        format!(
            "Figure 5 — Vulnerable nameservers in TCB (CDF)\n{}\nnames with ≥1 vulnerable: {} | mean {} (top-500 {})\n",
            t.render(),
            fmt_percent(self.frac_with_vulnerable),
            fmt_f64(self.mean_vulnerable, 1),
            fmt_f64(self.top500_mean_vulnerable, 1),
        )
    }

    /// The CSV-shaped data table with `series,x,y` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["series", "vulnerable_count", "cdf_percent"]);
        for &(x, y) in &self.all_points {
            t.row(vec!["all".to_string(), format!("{x}"), format!("{y}")]);
        }
        for &(x, y) in &self.top500_points {
            t.row(vec!["top500".to_string(), format!("{x}"), format!("{y}")]);
        }
        t
    }
}

/// Figure 6: names ranked by TCB safety (ascending), log-rank curve.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// `(rank, safety percent)` sampled log-uniformly in rank; rank 1 is
    /// the *least* safe name.
    pub points: Vec<(usize, f64)>,
    /// Number of names whose entire TCB is vulnerable (safety 0%).
    pub fully_vulnerable_names: usize,
}

impl Fig6 {
    /// Computes Figure 6 from a report containing
    /// [`columns::SAFETY_PERCENT`].
    pub fn from_report(report: &SurveyReport) -> Result<Fig6, ReportError> {
        let safety = report.try_floats(columns::SAFETY_PERCENT)?;
        // RankCurve sorts descending; we want ascending safety, so rank by
        // (100 - safety).
        let danger: Vec<f64> = safety.iter().map(|&s| 100.0 - s).collect();
        let curve = RankCurve::of(&danger);
        let points = curve
            .log_points(8)
            .into_iter()
            .map(|(rank, danger)| (rank, 100.0 - danger))
            .collect();
        Ok(Fig6 {
            points,
            fully_vulnerable_names: safety.iter().filter(|&&s| s <= 0.0).count(),
        })
    }
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["rank (least safe first)", "safety of TCB"])
            .align(vec![Align::Right, Align::Right]);
        for &(rank, safety) in &self.points {
            t.row(vec![rank.to_string(), format!("{safety:.1}%")]);
        }
        format!(
            "Figure 6 — Percentage of non-vulnerable nodes in TCB\n{}\nnames with fully vulnerable TCB: {}\n",
            t.render(),
            self.fully_vulnerable_names
        )
    }

    /// The CSV-shaped data table with `rank,safety_percent` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["rank", "safety_percent"]);
        for &(rank, safety) in &self.points {
            t.row(vec![rank.to_string(), format!("{safety}")]);
        }
        t
    }
}

/// Figure 7: CDF of safe bottleneck servers in the min-cut.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// `(safe count, percent ≤ count)` for all names.
    pub all_points: Vec<(f64, f64)>,
    /// Same for the top-500.
    pub top500_points: Vec<(f64, f64)>,
    /// Fraction of names whose min-cut is entirely vulnerable (the paper's
    /// 30%).
    pub frac_fully_vulnerable_cut: f64,
    /// Fraction with exactly one safe bottleneck (the paper's extra 10%).
    pub frac_one_safe: f64,
    /// Mean min-cut size (the paper's 2.5).
    pub mean_cut_size: f64,
}

impl Fig7 {
    /// Computes Figure 7 from a report containing [`columns::CUT_SIZE`]
    /// and [`columns::SAFE_IN_CUT`].
    pub fn from_report(report: &SurveyReport) -> Result<Fig7, ReportError> {
        let cut_size = report.try_counts(columns::CUT_SIZE)?;
        let safe_in_cut = report.try_counts(columns::SAFE_IN_CUT)?;
        let cuttable: Vec<usize> = cut_size
            .iter()
            .zip(safe_in_cut)
            .filter(|&(&size, _)| size > 0)
            .map(|(_, &safe)| safe)
            .collect();
        let cut_sizes: Vec<usize> = cut_size.iter().copied().filter(|&s| s > 0).collect();
        let cdf = Cdf::of_counts(&cuttable);
        let top: Vec<usize> = report
            .top500()
            .iter()
            .filter(|&&i| cut_size[i] > 0)
            .map(|&i| safe_in_cut[i])
            .collect();
        let top_cdf = Cdf::of_counts(&top);
        let n = cuttable.len().max(1) as f64;
        let zero = cuttable.iter().filter(|&&s| s == 0).count() as f64;
        let one = cuttable.iter().filter(|&&s| s == 1).count() as f64;
        Ok(Fig7 {
            all_points: cdf.plot_points(32),
            top500_points: top_cdf.plot_points(32),
            frac_fully_vulnerable_cut: zero / n,
            frac_one_safe: one / n,
            mean_cut_size: Summary::of_counts(&cut_sizes).mean,
        })
    }
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["safe bottlenecks", "all names CDF"])
            .align(vec![Align::Right, Align::Right]);
        for &(x, pct) in &self.all_points {
            t.row(vec![format!("{x:.0}"), format!("{pct:.1}%")]);
        }
        format!(
            "Figure 7 — DNS nameserver bottlenecks (safe servers in min-cut)\n{}\nfully-vulnerable min-cut: {} | exactly one safe: {} | mean cut size {}\n",
            t.render(),
            fmt_percent(self.frac_fully_vulnerable_cut),
            fmt_percent(self.frac_one_safe),
            fmt_f64(self.mean_cut_size, 1),
        )
    }

    /// The CSV-shaped data table with `series,x,y` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["series", "safe_bottlenecks", "cdf_percent"]);
        for &(x, y) in &self.all_points {
            t.row(vec!["all".to_string(), format!("{x}"), format!("{y}")]);
        }
        for &(x, y) in &self.top500_points {
            t.row(vec!["top500".to_string(), format!("{x}"), format!("{y}")]);
        }
        t
    }
}

/// Figures 8 and 9: rank vs. names-controlled curves.
#[derive(Debug, Clone)]
pub struct RankFigure {
    /// Series name → `(rank, names controlled)` log-sampled points.
    pub series: Vec<(String, Vec<(usize, f64)>)>,
    /// Servers controlling more than 10% of surveyed names.
    pub controlling_10pct: usize,
    /// Mean and median names-controlled (non-zero servers).
    pub mean: f64,
    /// Median names-controlled.
    pub median: f64,
}

impl RankFigure {
    /// Computes Figure 8 from a report containing [`columns::VALUE`].
    pub fn fig8_from_report(report: &SurveyReport) -> Result<RankFigure, ReportError> {
        let universe = &report.world.universe;
        let value = report.try_value_column(columns::VALUE)?;
        let all: Vec<u64> = value.ranking().iter().map(|&(_, c)| c).collect();
        let vulnerable: Vec<u64> = value
            .ranking_where(universe, |s| s.vulnerable)
            .iter()
            .map(|&(_, c)| c)
            .collect();
        let (mean, median) = value.mean_median();
        Ok(RankFigure {
            series: vec![
                ("all".to_string(), curve_points(&all)),
                ("vulnerable".to_string(), curve_points(&vulnerable)),
            ],
            controlling_10pct: value.servers_controlling_more_than(0.10),
            mean,
            median,
        })
    }

    /// Computes Figure 9 from a report containing [`columns::VALUE`].
    pub fn fig9_from_report(report: &SurveyReport) -> Result<RankFigure, ReportError> {
        let universe = &report.world.universe;
        let value = report.try_value_column(columns::VALUE)?;
        let edu: Vec<u64> = value
            .ranking_in_tld(universe, &name("edu"))
            .iter()
            .map(|&(_, c)| c)
            .collect();
        let org: Vec<u64> = value
            .ranking_in_tld(universe, &name("org"))
            .iter()
            .map(|&(_, c)| c)
            .collect();
        let (mean, median) = value.mean_median();
        Ok(RankFigure {
            series: vec![
                ("edu".to_string(), curve_points(&edu)),
                ("org".to_string(), curve_points(&org)),
            ],
            controlling_10pct: value.servers_controlling_more_than(0.10),
            mean,
            median,
        })
    }
}

fn curve_points(descending_counts: &[u64]) -> Vec<(usize, f64)> {
    let values: Vec<f64> = descending_counts.iter().map(|&c| c as f64).collect();
    RankCurve { descending: values }.log_points(8)
}

impl RankFigure {
    /// Renders all series.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        for (label, points) in &self.series {
            let mut t = Table::new(vec!["rank", "names controlled"])
                .align(vec![Align::Right, Align::Right]);
            for &(rank, count) in points {
                t.row(vec![rank.to_string(), format!("{count:.0}")]);
            }
            out.push_str(&format!("series: {label}\n{}\n", t.render()));
        }
        out.push_str(&format!(
            "servers controlling >10% of names: {} | mean {} median {}\n",
            self.controlling_10pct,
            fmt_f64(self.mean, 1),
            fmt_f64(self.median, 1),
        ));
        out
    }

    /// The CSV-shaped data table with `series,rank,names_controlled` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["series", "rank", "names_controlled"]);
        for (label, points) in &self.series {
            for &(rank, count) in points {
                t.row(vec![label.clone(), rank.to_string(), format!("{count}")]);
            }
        }
        t
    }
}

/// The paper's headline inline statistics (abstract, §3, §5).
#[derive(Debug, Clone)]
pub struct Headline {
    /// Surveyed names.
    pub names: usize,
    /// Distinct TLDs among surveyed names.
    pub tlds: usize,
    /// Discovered (non-root) nameservers.
    pub servers: usize,
    /// Vulnerable servers.
    pub vulnerable_servers: usize,
    /// Mean TCB size (paper: 46).
    pub mean_tcb: f64,
    /// Median TCB size (paper: 26).
    pub median_tcb: f64,
    /// Mean nameowner-administered servers (paper: 2.2).
    pub mean_nameowner: f64,
    /// Names with ≥1 vulnerable TCB member (paper: 264,599 ≈ 45%).
    pub names_with_vulnerable_dep: usize,
    /// Fraction of names with ≥1 vulnerable TCB member.
    pub frac_with_vulnerable_dep: f64,
    /// Fraction of names with an all-vulnerable min-cut (paper: 30%).
    pub frac_hijackable: f64,
    /// Mean min-cut size (paper: 2.5).
    pub mean_cut: f64,
    /// Servers controlling > 10% of names (paper: ~125).
    pub critical_servers: usize,
    /// How many critical servers are gTLD registry boxes (paper: ~30).
    pub critical_gtld: usize,
    /// How many critical servers are vulnerable (paper: ~12).
    pub critical_vulnerable: usize,
    /// How many critical servers live under .edu (paper: ~25).
    pub critical_edu: usize,
}

impl Headline {
    /// Computes the headline statistics from a report containing the six
    /// classic columns (TCB, min-cut and value).
    pub fn from_report(report: &SurveyReport) -> Result<Headline, ReportError> {
        let universe = &report.world.universe;
        let tcb_sizes = report.try_counts(columns::TCB_SIZE)?;
        let nameowner = report.try_counts(columns::NAMEOWNER)?;
        let vulnerable_in_tcb = report.try_counts(columns::VULNERABLE_IN_TCB)?;
        let cut_size = report.try_counts(columns::CUT_SIZE)?;
        let safe_in_cut = report.try_counts(columns::SAFE_IN_CUT)?;
        let value = report.try_value_column(columns::VALUE)?;
        let tlds: std::collections::BTreeSet<String> = report
            .world
            .names
            .iter()
            .map(|n| n.tld().to_string())
            .collect();
        let vulnerable_servers = universe
            .server_ids()
            .filter(|&s| universe.server(s).vulnerable && !universe.server(s).is_root)
            .count();
        let servers = universe
            .server_ids()
            .filter(|&s| !universe.server(s).is_root)
            .count();
        let names_with_vulnerable_dep = vulnerable_in_tcb.iter().filter(|&&v| v > 0).count();
        let cuttable = cut_size.iter().filter(|&&c| c > 0).count().max(1);
        let hijackable = cut_size
            .iter()
            .zip(safe_in_cut)
            .filter(|&(&size, &safe)| size > 0 && safe == 0)
            .count();
        let threshold = (value.names_seen() as f64 * 0.10).floor() as u64;
        let critical: Vec<_> = value
            .ranking()
            .into_iter()
            .filter(|&(_, c)| c > threshold)
            .collect();
        let is_gtld_box = |server_name: &DnsName| {
            server_name.is_subdomain_of(&name("gtld-servers.net"))
                || server_name.is_subdomain_of(&name("nstld.com"))
                || GTLDS
                    .iter()
                    .any(|g| server_name.is_subdomain_of(&name(&format!("{g}-servers.net"))))
        };
        let critical_gtld = critical
            .iter()
            .filter(|&&(s, _)| is_gtld_box(&universe.server(s).name))
            .count();
        let critical_vulnerable = critical
            .iter()
            .filter(|&&(s, _)| universe.server(s).vulnerable)
            .count();
        let critical_edu = critical
            .iter()
            .filter(|&&(s, _)| universe.server(s).name.is_subdomain_of(&name("edu")))
            .count();
        let cut_sizes: Vec<usize> = cut_size.iter().copied().filter(|&c| c > 0).collect();
        Ok(Headline {
            names: report.world.names.len(),
            tlds: tlds.len(),
            servers,
            vulnerable_servers,
            mean_tcb: Summary::of_counts(tcb_sizes).mean,
            median_tcb: Summary::of_counts(tcb_sizes).median,
            mean_nameowner: Summary::of_counts(nameowner).mean,
            names_with_vulnerable_dep,
            frac_with_vulnerable_dep: names_with_vulnerable_dep as f64
                / tcb_sizes.len().max(1) as f64,
            frac_hijackable: hijackable as f64 / cuttable as f64,
            mean_cut: Summary::of_counts(&cut_sizes).mean,
            critical_servers: critical.len(),
            critical_gtld,
            critical_vulnerable,
            critical_edu,
        })
    }

    /// The `(statistic, measured, paper)` rows behind both renderings.
    fn stat_rows(&self) -> Vec<[String; 3]> {
        vec![
            [
                "surveyed names".to_string(),
                self.names.to_string(),
                "593160".to_string(),
            ],
            ["TLDs".to_string(), self.tlds.to_string(), "196".to_string()],
            [
                "nameservers".to_string(),
                self.servers.to_string(),
                "166771".to_string(),
            ],
            [
                "vulnerable servers".to_string(),
                format!(
                    "{} ({})",
                    self.vulnerable_servers,
                    fmt_percent(self.vulnerable_servers as f64 / self.servers.max(1) as f64)
                ),
                "27141 (16.3%)".to_string(),
            ],
            [
                "mean TCB".to_string(),
                fmt_f64(self.mean_tcb, 1),
                "46".to_string(),
            ],
            [
                "median TCB".to_string(),
                fmt_f64(self.median_tcb, 0),
                "26".to_string(),
            ],
            [
                "nameowner-administered".to_string(),
                fmt_f64(self.mean_nameowner, 1),
                "2.2".to_string(),
            ],
            [
                "names w/ vulnerable dep".to_string(),
                format!(
                    "{} ({})",
                    self.names_with_vulnerable_dep,
                    fmt_percent(self.frac_with_vulnerable_dep)
                ),
                "264599 (45%)".to_string(),
            ],
            [
                "completely hijackable".to_string(),
                fmt_percent(self.frac_hijackable),
                "30%".to_string(),
            ],
            [
                "mean min-cut".to_string(),
                fmt_f64(self.mean_cut, 1),
                "2.5".to_string(),
            ],
            [
                "servers controlling >10%".to_string(),
                self.critical_servers.to_string(),
                "~125".to_string(),
            ],
            [
                "  of which gTLD registry".to_string(),
                self.critical_gtld.to_string(),
                "~30".to_string(),
            ],
            [
                "  of which vulnerable".to_string(),
                self.critical_vulnerable.to_string(),
                "~12".to_string(),
            ],
            [
                "  of which .edu".to_string(),
                self.critical_edu.to_string(),
                "~25".to_string(),
            ],
        ]
    }

    /// Renders the headline table with the paper's values alongside.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["statistic", "measured", "paper"]).align(vec![
            Align::Left,
            Align::Right,
            Align::Right,
        ]);
        for row in self.stat_rows() {
            t.row(row.to_vec());
        }
        format!("Headline statistics (paper abstract / §3)\n{}", t.render())
    }

    /// The CSV-shaped data table with `statistic,measured,paper` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["statistic", "measured", "paper"]);
        for row in self.stat_rows() {
            let mut row = row.to_vec();
            // The text rendering indents sub-rows; the data table keys
            // them plainly.
            row[0] = row[0].trim_start().to_string();
            t.row(row);
        }
        t
    }
}

/// Summary of the misconfiguration-audit columns (Pappas et al. checks).
#[derive(Debug, Clone)]
pub struct MisconfigSummary {
    /// Surveyed names.
    pub names: usize,
    /// Names whose own zone has a single nameserver.
    pub single_server: usize,
    /// Names whose zone's NS set shares one operator domain.
    pub single_operator: usize,
    /// Names whose zone delegates to an unresolvable NS.
    pub unresolvable_ns: usize,
    /// Names whose glueless nesting exceeds the metric's threshold.
    pub deep_dependency: usize,
    /// Deepest observed glueless nesting.
    pub max_depth: usize,
}

impl MisconfigSummary {
    /// Computes the summary from a report containing
    /// [`columns::MISCONFIG_FLAGS`] and [`columns::MISCONFIG_DEPTH`].
    pub fn from_report(report: &SurveyReport) -> Result<MisconfigSummary, ReportError> {
        let flags = report.try_counts(columns::MISCONFIG_FLAGS)?;
        let depth = report.try_counts(columns::MISCONFIG_DEPTH)?;
        let count_flag = |bit: usize| flags.iter().filter(|&&f| f & bit != 0).count();
        Ok(MisconfigSummary {
            names: flags.len(),
            single_server: count_flag(FLAG_SINGLE_SERVER),
            single_operator: count_flag(FLAG_SINGLE_OPERATOR),
            unresolvable_ns: count_flag(FLAG_UNRESOLVABLE_NS),
            deep_dependency: count_flag(FLAG_DEEP_DEPENDENCY),
            max_depth: depth.iter().copied().max().unwrap_or(0),
        })
    }

    fn stat_rows(&self) -> Vec<[String; 2]> {
        vec![
            ["surveyed names".to_string(), self.names.to_string()],
            [
                "single-server zone".to_string(),
                self.single_server.to_string(),
            ],
            [
                "single-operator redundancy".to_string(),
                self.single_operator.to_string(),
            ],
            [
                "unresolvable NS".to_string(),
                self.unresolvable_ns.to_string(),
            ],
            [
                "deep glueless nesting".to_string(),
                self.deep_dependency.to_string(),
            ],
            ["max observed depth".to_string(), self.max_depth.to_string()],
        ]
    }

    /// Renders the audit summary table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["finding", "names"]).align(vec![Align::Left, Align::Right]);
        for row in self.stat_rows() {
            t.row(row.to_vec());
        }
        format!(
            "Misconfiguration audit (Pappas et al. checks, per surveyed name)\n{}",
            t.render()
        )
    }

    /// The CSV-shaped data table with `finding,names` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["finding", "names"]);
        for row in self.stat_rows() {
            t.row(row.to_vec());
        }
        t
    }
}

/// Summary of the zombie-delegation columns: how much of the surveyed
/// namespace leans on dead infrastructure
/// ([`perils_core::ZombieDelegationMetric`]).
#[derive(Debug, Clone)]
pub struct ZombieSummary {
    /// Surveyed names.
    pub names: usize,
    /// Names with at least one dead server in their TCB.
    pub names_with_dead_dep: usize,
    /// Names resolvable only through a zombie delegation.
    pub orphaned_names: usize,
    /// Mean dead TCB members over names with any.
    pub mean_dead_among_affected: f64,
    /// Largest zombie-zone count seen in one closure.
    pub max_zombie_zones: usize,
}

impl ZombieSummary {
    /// Computes the summary from a report containing the three
    /// `zombie_*` columns.
    pub fn from_report(report: &SurveyReport) -> Result<ZombieSummary, ReportError> {
        let dead = report.try_counts(columns::ZOMBIE_DEAD_IN_TCB)?;
        let zones = report.try_counts(columns::ZOMBIE_ZONES)?;
        let orphaned = report.try_counts(columns::ZOMBIE_ORPHANED)?;
        let affected: Vec<usize> = dead.iter().copied().filter(|&d| d > 0).collect();
        Ok(ZombieSummary {
            names: dead.len(),
            names_with_dead_dep: affected.len(),
            orphaned_names: orphaned.iter().filter(|&&o| o > 0).count(),
            mean_dead_among_affected: Summary::of_counts(&affected).mean,
            max_zombie_zones: zones.iter().copied().max().unwrap_or(0),
        })
    }

    fn stat_rows(&self) -> Vec<[String; 2]> {
        vec![
            ["surveyed names".to_string(), self.names.to_string()],
            [
                "names w/ dead dependency".to_string(),
                format!(
                    "{} ({})",
                    self.names_with_dead_dep,
                    fmt_percent(self.names_with_dead_dep as f64 / self.names.max(1) as f64)
                ),
            ],
            [
                "orphaned names (zombie chain)".to_string(),
                self.orphaned_names.to_string(),
            ],
            [
                "mean dead TCB members (affected)".to_string(),
                fmt_f64(self.mean_dead_among_affected, 1),
            ],
            [
                "max zombie zones in one closure".to_string(),
                self.max_zombie_zones.to_string(),
            ],
        ]
    }

    /// Renders the zombie-delegation summary table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["statistic", "value"]).align(vec![Align::Left, Align::Right]);
        for row in self.stat_rows() {
            t.row(row.to_vec());
        }
        format!(
            "Zombie delegations (dead-infrastructure dependencies)\n{}",
            t.render()
        )
    }

    /// The CSV-shaped data table with `statistic,value` rows.
    pub fn data_table(&self) -> Table {
        let mut t = Table::new(vec!["statistic", "value"]);
        for row in self.stat_rows() {
            t.row(row.to_vec());
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Figure-trait adapters: each artifact as a registrable figure.

macro_rules! classic_figure {
    ($adapter:ident, $id:literal, $title:literal, $required:expr, $build:expr) => {
        #[doc = concat!("The `", $id, "` figure as a registrable [`Figure`].")]
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $adapter;

        impl Figure for $adapter {
            fn id(&self) -> &str {
                $id
            }

            fn title(&self) -> &str {
                $title
            }

            fn required_columns(&self) -> &[&str] {
                $required
            }

            fn build(&self, report: &SurveyReport) -> Result<RenderedFigure, FigureError> {
                #[allow(clippy::redundant_closure_call)]
                let (text, data) = ($build)(report)?;
                Ok(RenderedFigure::new($id, $title, text, data))
            }
        }
    };
}

classic_figure!(
    HeadlineFigure,
    "headline",
    "Headline statistics (paper abstract / §3)",
    &[
        columns::TCB_SIZE,
        columns::NAMEOWNER,
        columns::VULNERABLE_IN_TCB,
        columns::CUT_SIZE,
        columns::SAFE_IN_CUT,
        columns::VALUE,
    ],
    |report| {
        let h = Headline::from_report(report)?;
        Ok::<_, FigureError>((h.render(), h.data_table()))
    }
);

classic_figure!(
    Fig2Figure,
    "fig2",
    "Figure 2 — Size of TCB (CDF)",
    &[columns::TCB_SIZE],
    |report| {
        let f = Fig2::from_report(report)?;
        Ok::<_, FigureError>((f.render(), f.data_table()))
    }
);

classic_figure!(
    Fig3Figure,
    "fig3",
    "Figure 3 — Average TCB size for gTLD names",
    &[columns::TCB_SIZE],
    |report| {
        let f = Fig3::from_report(report)?;
        Ok::<_, FigureError>((f.render(), f.data_table()))
    }
);

classic_figure!(
    Fig4Figure,
    "fig4",
    "Figure 4 — Average TCB size for the 15 most vulnerable ccTLDs",
    &[columns::TCB_SIZE],
    |report| {
        let f = Fig4::from_report(report)?;
        Ok::<_, FigureError>((f.render(), f.data_table()))
    }
);

classic_figure!(
    Fig5Figure,
    "fig5",
    "Figure 5 — Vulnerable nameservers in TCB (CDF)",
    &[columns::VULNERABLE_IN_TCB],
    |report| {
        let f = Fig5::from_report(report)?;
        Ok::<_, FigureError>((f.render(), f.data_table()))
    }
);

classic_figure!(
    Fig6Figure,
    "fig6",
    "Figure 6 — Percentage of non-vulnerable nodes in TCB",
    &[columns::SAFETY_PERCENT],
    |report| {
        let f = Fig6::from_report(report)?;
        Ok::<_, FigureError>((f.render(), f.data_table()))
    }
);

classic_figure!(
    Fig7Figure,
    "fig7",
    "Figure 7 — DNS nameserver bottlenecks (safe servers in min-cut)",
    &[columns::CUT_SIZE, columns::SAFE_IN_CUT],
    |report| {
        let f = Fig7::from_report(report)?;
        Ok::<_, FigureError>((f.render(), f.data_table()))
    }
);

classic_figure!(
    Fig8Figure,
    "fig8",
    "Figure 8 — Number of names controlled by nameservers",
    &[columns::VALUE],
    |report| {
        let f = RankFigure::fig8_from_report(report)?;
        Ok::<_, FigureError>((
            f.render("Figure 8 — Number of names controlled by nameservers"),
            f.data_table(),
        ))
    }
);

classic_figure!(
    Fig9Figure,
    "fig9",
    "Figure 9 — Names controlled by .edu and .org nameservers",
    &[columns::VALUE],
    |report| {
        let f = RankFigure::fig9_from_report(report)?;
        Ok::<_, FigureError>((
            f.render("Figure 9 — Names controlled by .edu and .org nameservers"),
            f.data_table(),
        ))
    }
);

classic_figure!(
    MisconfigFigure,
    "misconfig",
    "Misconfiguration audit (Pappas et al. checks, per surveyed name)",
    &[columns::MISCONFIG_FLAGS, columns::MISCONFIG_DEPTH],
    |report| {
        let s = MisconfigSummary::from_report(report)?;
        Ok::<_, FigureError>((s.render(), s.data_table()))
    }
);

classic_figure!(
    ZombieFigure,
    "zombie",
    "Zombie delegations (dead-infrastructure dependencies)",
    &[
        columns::ZOMBIE_DEAD_IN_TCB,
        columns::ZOMBIE_ZONES,
        columns::ZOMBIE_ORPHANED,
    ],
    |report| {
        let s = ZombieSummary::from_report(report)?;
        Ok::<_, FigureError>((s.render(), s.data_table()))
    }
);

impl FigureRegistry {
    /// The paper's nine artifacts (headline plus Figures 2–9), in
    /// presentation order.
    pub fn classic() -> FigureRegistry {
        FigureRegistry::new()
            .register(HeadlineFigure)
            .register(Fig2Figure)
            .register(Fig3Figure)
            .register(Fig4Figure)
            .register(Fig5Figure)
            .register(Fig6Figure)
            .register(Fig7Figure)
            .register(Fig8Figure)
            .register(Fig9Figure)
    }

    /// The classic nine plus the misconfiguration-audit summary — the
    /// renderers matching `Engine::with_extended_metrics`.
    pub fn extended() -> FigureRegistry {
        FigureRegistry::classic().register(MisconfigFigure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, SyntheticSource};
    use crate::params::TopologyParams;

    fn tiny_report() -> SurveyReport {
        Engine::with_builtin_metrics().run(SyntheticSource {
            params: TopologyParams::tiny(29),
        })
    }

    #[test]
    fn all_figures_compute_and_render() {
        let report = tiny_report();
        let f2 = Fig2::from_report(&report).expect("figure 2");
        assert!(f2.all.mean > 0.0);
        assert!(f2.render().contains("Figure 2"));
        assert!(f2.data_table().render_csv().starts_with("series,"));

        let f3 = Fig3::from_report(&report).expect("figure 3");
        assert!(!f3.bars.is_empty());
        assert!(f3.render().contains("Figure 3"));

        let f4 = Fig4::from_report(&report).expect("figure 4");
        assert!(f4.bars.len() <= 15);
        assert!(f4.render().contains("Figure 4"));

        let f5 = Fig5::from_report(&report).expect("figure 5");
        assert!(f5.render().contains("Figure 5"));
        assert!((0.0..=1.0).contains(&f5.frac_with_vulnerable));

        let f6 = Fig6::from_report(&report).expect("figure 6");
        assert!(f6.render().contains("Figure 6"));
        assert!(!f6.points.is_empty());

        let f7 = Fig7::from_report(&report).expect("figure 7");
        assert!(f7.render().contains("Figure 7"));
        assert!((0.0..=1.0).contains(&f7.frac_fully_vulnerable_cut));

        let f8 = RankFigure::fig8_from_report(&report).expect("figure 8");
        assert_eq!(f8.series.len(), 2);
        assert!(f8.render("Figure 8").contains("series: all"));

        let f9 = RankFigure::fig9_from_report(&report).expect("figure 9");
        assert!(f9.render("Figure 9").contains("series: edu"));

        let h = Headline::from_report(&report).expect("headline");
        assert!(h.render().contains("mean TCB"));
        assert_eq!(h.names, report.world.names.len());
    }

    #[test]
    fn fig3_order_matches_paper_axis() {
        let report = tiny_report();
        let f3 = Fig3::from_report(&report).expect("figure 3");
        let order: Vec<&str> = f3.bars.iter().map(|b| b.tld.as_str()).collect();
        // Bars must appear in the paper's x-axis order (subset thereof).
        let mut expected = GTLDS.iter();
        for tld in order {
            assert!(expected.any(|g| *g == tld), "gTLD {tld} out of paper order");
        }
    }

    #[test]
    fn fig4_descending() {
        let report = tiny_report();
        let f4 = Fig4::from_report(&report).expect("figure 4");
        for w in f4.bars.windows(2) {
            assert!(w[0].mean_tcb >= w[1].mean_tcb);
        }
    }

    #[test]
    fn fig7_fractions_consistent() {
        let report = tiny_report();
        let f7 = Fig7::from_report(&report).expect("figure 7");
        assert!(f7.frac_fully_vulnerable_cut + f7.frac_one_safe <= 1.0 + 1e-9);
        assert!(f7.mean_cut_size >= 1.0);
    }

    #[test]
    fn headline_consistency() {
        let report = tiny_report();
        let h = Headline::from_report(&report).expect("headline");
        assert!(h.vulnerable_servers <= h.servers);
        assert!(h.critical_gtld <= h.critical_servers);
        assert!(h.critical_vulnerable <= h.critical_servers);
        assert!((0.0..=1.0).contains(&h.frac_with_vulnerable_dep));
        assert!((0.0..=1.0).contains(&h.frac_hijackable));
    }
}
