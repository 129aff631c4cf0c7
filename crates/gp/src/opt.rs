//! A dependency-free Nelder–Mead simplex minimizer, driven from outside.
//!
//! Used for GP hyperparameter MLE on the three log-parameters. The search
//! is an ask/tell state machine: [`NelderMead::ask`] names the point it
//! wants evaluated next and [`NelderMead::tell`] hands it the value. The
//! caller owns the objective, so searches can share work between their
//! evaluations: `mle.rs`, the only caller, runs one search per target in
//! lockstep and factors a kernel matrix once for all searches that ask for
//! the same hyperparameters. The machine asks for exactly the points, in
//! exactly the order, that the closure-driven loop in `reference.rs`
//! evaluates, and ends on the same point and value.

/// Options for a Nelder–Mead run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NelderMeadOptions {
    pub(crate) max_iters: usize,
    /// Stop when the simplex's function-value spread falls below this.
    pub(crate) f_tol: f64,
    /// Initial simplex step per coordinate.
    pub(crate) initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions { max_iters: 120, f_tol: 1e-8, initial_step: 0.25 }
    }
}

/// Reflection, expansion, contraction and shrink coefficients.
const ALPHA: f64 = 1.0;
const GAMMA: f64 = 2.0;
const RHO: f64 = 0.5;
const SIGMA: f64 = 0.5;

/// What the pending point is, and so what its value decides.
#[derive(Debug, Clone)]
enum Step {
    /// Vertex `i` of the initial simplex (vertex 0 is the start).
    Initial(usize),
    Reflect,
    /// The expansion of a reflection, which is kept with its value.
    Expand(Vec<f64>, f64),
    Contract,
    /// Vertex `i` shrunk toward the best vertex.
    Shrink(usize),
    Done,
}

/// One Nelder–Mead minimization from a start point.
#[derive(Debug, Clone)]
pub(crate) struct NelderMead {
    opts: NelderMeadOptions,
    x0: Vec<f64>,
    simplex: Vec<(Vec<f64>, f64)>,
    /// The point [`NelderMead::ask`] returns.
    point: Vec<f64>,
    step: Step,
    iters: usize,
    /// This iteration's centroid of all but the worst vertex, and the worst.
    centroid: Vec<f64>,
    worst: (Vec<f64>, f64),
}

impl NelderMead {
    /// A search from `x0`; its first point is `x0`.
    pub(crate) fn new(x0: &[f64], opts: &NelderMeadOptions) -> NelderMead {
        assert!(!x0.is_empty());
        NelderMead {
            opts: *opts,
            x0: x0.to_vec(),
            simplex: Vec::with_capacity(x0.len() + 1),
            point: x0.to_vec(),
            step: Step::Initial(0),
            iters: 0,
            centroid: Vec::new(),
            worst: (Vec::new(), f64::NAN),
        }
    }

    /// The point to evaluate next, or `None` once the search has finished.
    pub(crate) fn ask(&self) -> Option<&[f64]> {
        (!matches!(self.step, Step::Done)).then_some(self.point.as_slice())
    }

    /// The objective's value at the point [`NelderMead::ask`] returned.
    ///
    /// # Panics
    /// After the search has finished.
    pub(crate) fn tell(&mut self, value: f64) {
        let d = self.x0.len();
        match std::mem::replace(&mut self.step, Step::Done) {
            Step::Initial(i) => {
                self.simplex.push((self.point.clone(), value));
                if i < d {
                    self.point.copy_from_slice(&self.x0);
                    self.point[i] += self.opts.initial_step;
                    self.step = Step::Initial(i + 1);
                } else {
                    self.iterate();
                }
            }
            Step::Reflect => {
                if value < self.simplex[0].1 {
                    let reflect = std::mem::take(&mut self.point);
                    self.point = self
                        .centroid
                        .iter()
                        .zip(&reflect)
                        .map(|(c, r)| c + GAMMA * (r - c))
                        .collect();
                    self.step = Step::Expand(reflect, value);
                } else if value < self.simplex[d - 1].1 {
                    self.replace_worst(value);
                } else {
                    self.point = self
                        .centroid
                        .iter()
                        .zip(&self.worst.0)
                        .map(|(c, w)| c + RHO * (w - c))
                        .collect();
                    self.step = Step::Contract;
                }
            }
            Step::Expand(reflect, f_reflect) => {
                if value < f_reflect {
                    self.replace_worst(value);
                } else {
                    self.point = reflect;
                    self.replace_worst(f_reflect);
                }
            }
            Step::Contract => {
                if value < self.worst.1 {
                    self.replace_worst(value);
                } else {
                    self.shrink(1);
                }
            }
            Step::Shrink(i) => {
                self.simplex[i] = (std::mem::take(&mut self.point), value);
                if i < d {
                    self.shrink(i + 1);
                } else {
                    self.iterate();
                }
            }
            Step::Done => panic!("tell after the search finished"),
        }
    }

    /// The best vertex and its value.
    ///
    /// # Panics
    /// Before the search has finished.
    pub(crate) fn into_best(mut self) -> (Vec<f64>, f64) {
        assert!(matches!(self.step, Step::Done), "the search has not finished");
        self.simplex.swap_remove(0)
    }

    /// The pending point replaces the worst vertex; next iteration.
    fn replace_worst(&mut self, value: f64) {
        let d = self.x0.len();
        self.simplex[d] = (std::mem::take(&mut self.point), value);
        self.iterate();
    }

    /// Ask for vertex `i` shrunk toward the best one.
    fn shrink(&mut self, i: usize) {
        let best = &self.simplex[0].0;
        self.point =
            best.iter().zip(&self.simplex[i].0).map(|(b, x)| b + SIGMA * (x - b)).collect();
        self.step = Step::Shrink(i);
    }

    /// Start the next iteration — order the simplex, test convergence, ask
    /// for the reflection of the worst vertex — or finish.
    fn iterate(&mut self) {
        let d = self.x0.len();
        if self.iters == self.opts.max_iters {
            return self.finish();
        }
        self.iters += 1;
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let spread = self.simplex[d].1 - self.simplex[0].1;
        if spread.abs() < self.opts.f_tol {
            return self.finish();
        }
        self.centroid.clear();
        self.centroid.resize(d, 0.0);
        for (v, _) in self.simplex.iter().take(d) {
            for (c, x) in self.centroid.iter_mut().zip(v) {
                *c += x / d as f64;
            }
        }
        self.worst = self.simplex[d].clone();
        self.point =
            self.centroid.iter().zip(&self.worst.0).map(|(c, w)| c + ALPHA * (c - w)).collect();
        self.step = Step::Reflect;
    }

    fn finish(&mut self) {
        self.simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        self.step = Step::Done;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a search on `f` to the end.
    fn minimize(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        opts: &NelderMeadOptions,
    ) -> (Vec<f64>, f64) {
        let mut search = NelderMead::new(x0, opts);
        while let Some(p) = search.ask() {
            let value = f(p);
            search.tell(value);
        }
        search.into_best()
    }

    #[test]
    fn minimizes_quadratic() {
        let (x, fx) = minimize(
            |v| (v[0] - 3.0).powi(2) + (v[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadOptions { max_iters: 400, ..Default::default() },
        );
        assert!((x[0] - 3.0).abs() < 1e-3, "{x:?}");
        assert!((x[1] + 1.0).abs() < 1e-3, "{x:?}");
        assert!(fx < 1e-5);
    }

    #[test]
    fn minimizes_rosenbrock_2d() {
        let rosen = |v: &[f64]| {
            let (a, b) = (v[0], v[1]);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let (x, fx) = minimize(
            rosen,
            &[-1.0, 1.0],
            &NelderMeadOptions { max_iters: 2000, f_tol: 1e-14, ..Default::default() },
        );
        assert!(fx < 1e-4, "f={fx} at {x:?}");
    }

    #[test]
    fn one_dimensional() {
        let (x, _) = minimize(|v| (v[0] - 0.25).powi(2), &[0.9], &NelderMeadOptions::default());
        assert!((x[0] - 0.25).abs() < 1e-3);
    }

    #[test]
    fn respects_iteration_budget() {
        let mut calls = 0usize;
        let _ = minimize(
            |v| {
                calls += 1;
                v[0] * v[0]
            },
            &[10.0],
            &NelderMeadOptions { max_iters: 5, f_tol: 0.0, initial_step: 0.1 },
        );
        // d+1 initial evaluations plus at most a few per iteration.
        assert!(calls <= 2 + 5 * 4, "calls {calls}");
    }
}
