//! Experiment parameters (the paper's Table 1) and run scales.

use road_network::generator::Dataset;
use road_network::graph::{RoadNetwork, WeightKind};

/// How large a run is; chosen with `--scale small|medium|full|large`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpScale {
    /// Label for output.
    pub name: &'static str,
    /// Scale factor for CA.
    pub ca: f64,
    /// Scale factor for NA and SF.
    pub big: f64,
    /// Scale factor for the beyond-paper CONT preset (only benched at
    /// `large`, but every scale carries a feasible factor so ad-hoc runs
    /// and the ignored CI smoke can shrink it).
    pub continent: f64,
    /// Queries averaged per measurement point (paper: 100).
    pub queries: usize,
    /// Update trials per measurement point (paper: 100).
    pub trials: usize,
}

/// CI-sized runs.
pub const SMALL: ExpScale =
    ExpScale { name: "small", ca: 0.04, big: 0.012, continent: 0.004, queries: 15, trials: 8 };
/// CA at paper size, NA/SF at a quarter (default).
pub const MEDIUM: ExpScale =
    ExpScale { name: "medium", ca: 1.0, big: 0.25, continent: 0.05, queries: 50, trials: 25 };
/// The paper's exact sizes.
pub const FULL: ExpScale =
    ExpScale { name: "full", ca: 1.0, big: 1.0, continent: 1.0, queries: 100, trials: 100 };
/// Beyond the paper: the three paper networks at full size plus the
/// ~10^6-node continental preset.
pub const LARGE: ExpScale =
    ExpScale { name: "large", ca: 1.0, big: 1.0, continent: 1.0, queries: 100, trials: 100 };

impl ExpScale {
    /// Parses `--scale NAME` from an argument list (default `medium`); an
    /// unknown name is an error — silently benching the wrong world would
    /// pollute the recorded perf trajectory.
    pub fn from_arg_list(args: &[String]) -> Result<ExpScale, String> {
        match args.iter().position(|a| a == "--scale") {
            Some(i) => match args.get(i + 1).map(String::as_str) {
                Some("small") => Ok(SMALL),
                Some("full") => Ok(FULL),
                Some("large") => Ok(LARGE),
                Some("medium") | None => Ok(MEDIUM),
                Some(other) => {
                    Err(format!("unknown scale '{other}' (valid: small, medium, full, large)"))
                }
            },
            None => Ok(MEDIUM),
        }
    }

    /// The datasets benched at this scale: the paper's three everywhere,
    /// plus the continental preset at `large`.
    pub fn datasets(&self) -> &'static [Dataset] {
        const PAPER: [Dataset; 3] = Dataset::ALL;
        const WITH_CONTINENT: [Dataset; 4] =
            [Dataset::CaHighways, Dataset::NaHighways, Dataset::SfStreets, Dataset::Continent];
        if self.name == "large" {
            &WITH_CONTINENT
        } else {
            &PAPER
        }
    }

    /// The network scale for a dataset.
    pub fn factor(&self, ds: Dataset) -> f64 {
        match ds {
            Dataset::CaHighways => self.ca,
            Dataset::Continent => self.continent,
            _ => self.big,
        }
    }
}

/// Checks an argument list (program name first) against the flags its bin
/// takes, each followed by one value: a misspelt flag must not run the
/// default experiment in silence. The values are judged by the flags' own
/// parsers.
pub fn check_flags(args: &[String], valid: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !valid.contains(&arg.as_str()) {
            return Err(format!("unknown argument '{arg}' (valid: {})", valid.join(", ")));
        }
        if rest.next().is_none() {
            return Err(format!("'{arg}' needs a value"));
        }
    }
    Ok(())
}

/// The value, or the message on stderr and exit status 2.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Fixed parameters of the evaluation (Table 1 defaults).
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Partition fanout `p`.
    pub fanout: usize,
    /// Default object cardinality `|O|`.
    pub objects: usize,
    /// Default number of NNs `k`.
    pub k: usize,
    /// Default search range as a fraction of the network diameter.
    pub range_fraction: f64,
    /// Buffer pool pages.
    pub buffer_pages: usize,
    /// Metric.
    pub metric: WeightKind,
    /// Master seed; every derived workload offsets from it.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            fanout: 4,
            objects: 100,
            k: 5,
            range_fraction: 0.1,
            buffer_pages: road_storage::DEFAULT_BUFFER_PAGES,
            metric: WeightKind::Distance,
            seed: 0xEDB7_2009,
        }
    }
}

/// Generates the network for `ds` at this scale, or a diagnostic naming
/// everything needed to reproduce the failure.
pub fn try_network(ds: Dataset, scale: &ExpScale, params: &Params) -> Result<RoadNetwork, String> {
    let factor = scale.factor(ds);
    let diag = |detail: String| {
        format!(
            "cannot generate dataset {} at scale factor {factor} (seed {:#x}): {detail}",
            ds.name(),
            params.seed
        )
    };
    // Checked here rather than asserted downstream: a hand-edited scale
    // must not take the whole bench run down with a context-free panic.
    if !(factor > 0.0 && factor <= 1.0) {
        return Err(diag("scale factor must be in (0, 1]".to_string()));
    }
    ds.generate_scaled(factor, params.seed).map_err(|e| diag(e.to_string()))
}

/// Generates the network for `ds` at this scale; on infeasible targets
/// the process exits with the [`try_network`] diagnostic instead of a
/// context-free panic.
pub fn network(ds: Dataset, scale: &ExpScale, params: &Params) -> RoadNetwork {
    or_exit(try_network(ds, scale, params))
}

/// Hierarchy depth for a dataset at a scale: the paper's `l` at full
/// size, size-adjusted below it.
pub fn levels(ds: Dataset, g: &RoadNetwork, scale: &ExpScale, params: &Params) -> u32 {
    if scale.factor(ds) >= 1.0 {
        ds.default_levels()
    } else {
        ds.suggested_levels(g.num_edges(), params.fanout)
    }
}

/// `bin` followed by `rest`, as an owned argument list.
#[cfg(test)]
pub(crate) fn argv(rest: &[&str]) -> Vec<String> {
    std::iter::once("bin").chain(rest.iter().copied()).map(String::from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let args = |s: &str| argv(&["--scale", s]);
        assert_eq!(ExpScale::from_arg_list(&args("small")).unwrap().name, "small");
        assert_eq!(ExpScale::from_arg_list(&args("full")).unwrap().name, "full");
        assert_eq!(ExpScale::from_arg_list(&args("large")).unwrap().name, "large");
        assert_eq!(ExpScale::from_arg_list(&argv(&[])).unwrap().name, "medium");
        // A typo must not silently bench a different world.
        let err = ExpScale::from_arg_list(&args("larg")).unwrap_err();
        assert!(err.contains("larg") && err.contains("large"), "unhelpful error: {err}");
    }

    #[test]
    fn unknown_flags_are_refused() {
        let valid = ["--scale", "--axis"];
        assert!(check_flags(&argv(&[]), &valid).is_ok());
        assert!(check_flags(&argv(&["--axis", "k", "--scale", "small"]), &valid).is_ok());
        // A misspelt flag must not fall back to the default scale.
        let err = check_flags(&argv(&["--sclae", "small"]), &valid).unwrap_err();
        assert!(err.contains("--sclae") && err.contains("--scale, --axis"), "unhelpful: {err}");
        assert!(check_flags(&argv(&["--axis", "k"]), &["--scale"]).is_err());
        assert!(check_flags(&argv(&["small"]), &valid).is_err());
        assert!(check_flags(&argv(&["--scale"]), &valid).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn scale_datasets() {
        assert_eq!(SMALL.datasets().len(), 3);
        assert_eq!(LARGE.datasets().len(), 4);
        assert!(LARGE.datasets().contains(&Dataset::Continent));
        assert!(LARGE.factor(Dataset::Continent) >= 1.0);
    }

    #[test]
    fn infeasible_network_error_names_the_run() {
        let p = Params::default();
        // An out-of-range factor must surface as a diagnostic naming the
        // dataset, scale factor and seed — not a generator panic.
        let overgrown = ExpScale { continent: 2.0, ..SMALL };
        let err = try_network(Dataset::Continent, &overgrown, &p).unwrap_err();
        assert!(err.contains("CONT"), "missing dataset: {err}");
        assert!(err.contains('2'), "missing factor: {err}");
        assert!(err.contains("0xedb72009"), "missing seed: {err}");
        assert!(try_network(Dataset::CaHighways, &SMALL, &p).is_ok());
    }

    #[test]
    fn network_and_levels() {
        let p = Params::default();
        let g = network(Dataset::CaHighways, &SMALL, &p);
        assert!(g.num_nodes() > 500);
        let l = levels(Dataset::CaHighways, &g, &SMALL, &p);
        assert!((2..=10).contains(&l));
        // Full scale uses the paper's settings.
        assert_eq!(Dataset::CaHighways.default_levels(), 4);
    }
}
