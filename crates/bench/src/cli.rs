//! The one argument parser behind `bench <subcommand>`: a run scale plus
//! the few valued options a subcommand declares. Anything else is an
//! error, so a typo never runs the full-size job.

/// How large a run the caller asked for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// `--smoke`: CI-sized, seconds.
    Smoke,
    /// `--quick`: reduced problem size.
    Quick,
    /// No flag: the paper-scale (or full-sweep) run.
    Full,
}

/// The flags that select a reduced scale.
const SCALE_FLAGS: [(&str, Scale); 2] = [("--smoke", Scale::Smoke), ("--quick", Scale::Quick)];

/// What one subcommand accepts beyond its name.
#[derive(Clone, Copy, Debug)]
pub struct Accepts {
    /// The reduced scales it has a size for ([`Scale::Full`] is implied).
    pub scales: &'static [Scale],
    /// Options that take a value, e.g. `"--workload"`.
    pub options: &'static [&'static str],
}

impl Accepts {
    /// Subcommand `name` followed by everything it accepts: what goes
    /// after `usage: bench `.
    pub fn synopsis(&self, name: &str) -> String {
        let mut line = name.to_string();
        let flags: Vec<&str> = SCALE_FLAGS
            .iter()
            .filter(|(_, scale)| self.scales.contains(scale))
            .map(|&(flag, _)| flag)
            .collect();
        if !flags.is_empty() {
            line.push_str(&format!(" [{}]", flags.join(" | ")));
        }
        for opt in self.options {
            line.push_str(&format!(" [{opt} <value>]"));
        }
        line
    }
}

/// A subcommand's parsed arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// The requested run scale.
    pub scale: Scale,
    values: Vec<(&'static str, String)>,
}

impl Args {
    /// The value given for `option`, if it was.
    pub fn value(&self, option: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(o, _)| *o == option)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse the arguments after the subcommand name against what it
/// `accepts`. The error names the offending argument; the caller prints
/// it with the subcommand's synopsis and exits 2.
pub fn parse(argv: &[String], accepts: &Accepts) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Full,
        values: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let scale = SCALE_FLAGS
            .iter()
            .find(|(flag, _)| flag == arg)
            .map(|&(_, scale)| scale);
        if let Some(scale) = scale.filter(|s| accepts.scales.contains(s)) {
            if args.scale != Scale::Full {
                return Err("give at most one of --smoke, --quick".to_string());
            }
            args.scale = scale;
        } else if let Some(&opt) = accepts.options.iter().find(|o| *o == arg) {
            let value = it.next().ok_or_else(|| format!("{opt} needs a value"))?;
            args.values.push((opt, value.clone()));
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG: Accepts = Accepts {
        scales: &[Scale::Smoke, Scale::Quick],
        options: &[],
    };
    const DST: Accepts = Accepts {
        scales: &[Scale::Smoke, Scale::Quick],
        options: &["--workload", "--replay"],
    };

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn scales_and_valued_options_parse() {
        assert_eq!(parse(&[], &FIG).unwrap().scale, Scale::Full);
        assert_eq!(
            parse(&argv(&["--smoke"]), &FIG).unwrap().scale,
            Scale::Smoke
        );
        let args = parse(&argv(&["--workload", "bh,fmm", "--quick"]), &DST).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.value("--workload"), Some("bh,fmm"));
        assert_eq!(args.value("--replay"), None);
    }

    #[test]
    fn a_typo_is_an_error_not_a_full_size_run() {
        let err = parse(&argv(&["--smok"]), &FIG).unwrap_err();
        assert!(err.contains("--smok"), "{err}");
        // A scale the subcommand has no size for is as unknown as a typo.
        let quick_only = Accepts {
            scales: &[Scale::Quick],
            options: &[],
        };
        assert!(parse(&argv(&["--smoke"]), &quick_only).is_err());
        assert!(parse(&argv(&["--workload"]), &DST)
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&argv(&["--smoke", "--quick"]), &FIG).is_err());
        assert!(parse(&argv(&["--workload", "bh"]), &FIG).is_err());
    }

    #[test]
    fn usage_lists_exactly_what_is_accepted() {
        assert_eq!(FIG.synopsis("fig_graph"), "fig_graph [--smoke | --quick]");
        assert_eq!(
            DST.synopsis("dst"),
            "dst [--smoke | --quick] [--workload <value>] [--replay <value>]"
        );
    }
}
