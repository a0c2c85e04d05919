//! One module per figure of the paper's evaluation (Section 6), plus the
//! object-distribution ablation of its footnote 3.

pub mod ablation;
pub mod fig11;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;

use crate::config::{self, ExpScale, Params};

/// Everything an experiment needs.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub scale: ExpScale,
    pub params: Params,
}

impl Ctx {
    /// Context from argv (`--scale small|medium|full|large`, default
    /// `medium`); anything else on the command line exits 2.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        config::or_exit(Self::from_arg_list(&args, &[]))
    }

    /// Context from an argument list (testable); `also` names the flags
    /// the calling bin parses itself.
    pub fn from_arg_list(args: &[String], also: &[&str]) -> Result<Self, String> {
        config::check_flags(args, &[&["--scale"], also].concat())?;
        Ok(Ctx::with_scale(ExpScale::from_arg_list(args)?))
    }

    /// Context for a specific scale.
    pub fn with_scale(scale: ExpScale) -> Self {
        Ctx { scale, params: Params::default() }
    }

    /// Scales an object cardinality with the network factor so that object
    /// density stays comparable to the paper's.
    pub fn scaled_count(&self, base: usize, factor: f64) -> usize {
        ((base as f64 * factor).round() as usize).max(4)
    }
}

/// Runs the complete suite in paper order (the `exp_all` binary).
pub fn run_all(ctx: &Ctx) {
    println!("# ROAD reproduction — full experiment suite");
    println!(
        "\nscale = {} (CA x{}, NA/SF x{}, {} queries, {} trials per point)",
        ctx.scale.name, ctx.scale.ca, ctx.scale.big, ctx.scale.queries, ctx.scale.trials
    );
    fig11::run(ctx);
    fig13::run(ctx);
    fig14::run(ctx);
    fig15::run(ctx);
    fig16::run(ctx);
    fig17::run(ctx, None);
    fig18::run(ctx, None);
    fig19::run(ctx);
    ablation::run(ctx);
}
