//! Seeded request streams for the serve workloads. A stream is an
//! endless deterministic sequence: the same seed yields the same
//! requests, and a closed-loop client consumes as many as time allows.

use nm_tensor::TensorRng;

/// Which traffic mix a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 85 % `topk` k=10 and 10 % `topk` k=50 over Zipf(1.0) users of
    /// both domains, 5 % `score` of 20 items.
    Mixed,
    /// `topk` k=500 over uniform users of both domains.
    Wide,
}

/// One wire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    TopK {
        domain: usize,
        user: u32,
        k: usize,
    },
    Score {
        domain: usize,
        user: u32,
        items: Vec<u32>,
    },
}

impl Request {
    /// The request as one line of the wire protocol (no newline).
    pub fn line(&self) -> String {
        let d = |domain: usize| if domain == 0 { "a" } else { "b" };
        match self {
            Request::TopK { domain, user, k } => format!(
                r#"{{"op":"topk","user":{user},"domain":"{}","k":{k}}}"#,
                d(*domain)
            ),
            Request::Score {
                domain,
                user,
                items,
            } => {
                let items: Vec<String> = items.iter().map(u32::to_string).collect();
                format!(
                    r#"{{"op":"score","user":{user},"domain":"{}","items":[{}]}}"#,
                    d(*domain),
                    items.join(",")
                )
            }
        }
    }
}

/// Users and items per domain of the served snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Catalog {
    pub users: [usize; 2],
    pub items: [usize; 2],
}

/// Zipf(s) over `n` ranks, mapped to user ids through a seeded
/// permutation so the hot users are not simply the lowest ids.
struct Zipf {
    cdf: Vec<f64>,
    users: Vec<u32>,
}

impl Zipf {
    fn new(n: usize, s: f64, rng: &mut TensorRng) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut users: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            users.swap(i, rng.index(i + 1));
        }
        Self { cdf, users }
    }

    fn sample(&self, rng: &mut TensorRng) -> u32 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.users.len().saturating_sub(1));
        self.users[rank]
    }
}

/// An endless seeded request stream for one connection.
pub struct RequestStream {
    mix: Mix,
    catalog: Catalog,
    rng: TensorRng,
    zipf: Option<[Zipf; 2]>,
}

impl RequestStream {
    pub fn new(mix: Mix, catalog: Catalog, seed: u64) -> Self {
        let mut rng = TensorRng::seed_from(seed);
        let zipf = (mix == Mix::Mixed).then(|| {
            [
                Zipf::new(catalog.users[0], 1.0, &mut rng),
                Zipf::new(catalog.users[1], 1.0, &mut rng),
            ]
        });
        Self {
            mix,
            catalog,
            rng,
            zipf,
        }
    }

    fn user(&mut self, domain: usize) -> u32 {
        match &self.zipf {
            Some(z) => z[domain].sample(&mut self.rng),
            None => self.rng.index(self.catalog.users[domain]) as u32,
        }
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let domain = self.rng.index(2);
        let user = self.user(domain);
        let req = match self.mix {
            Mix::Wide => Request::TopK {
                domain,
                user,
                k: 500,
            },
            Mix::Mixed => {
                let roll = self.rng.index(100);
                if roll < 85 {
                    Request::TopK {
                        domain,
                        user,
                        k: 10,
                    }
                } else if roll < 95 {
                    Request::TopK {
                        domain,
                        user,
                        k: 50,
                    }
                } else {
                    let n = self.catalog.items[domain];
                    let items = (0..20).map(|_| self.rng.index(n) as u32).collect();
                    Request::Score {
                        domain,
                        user,
                        items,
                    }
                }
            }
        };
        Some(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CATALOG: Catalog = Catalog {
        users: [220, 863],
        items: [120, 323],
    };

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed| -> Vec<Request> {
            RequestStream::new(Mix::Mixed, CATALOG, seed)
                .take(500)
                .collect()
        };
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let wide = |seed| -> Vec<String> {
            RequestStream::new(Mix::Wide, CATALOG, seed)
                .take(50)
                .map(|r| r.line())
                .collect()
        };
        assert_eq!(wide(3), wide(3));
    }

    #[test]
    fn mixed_stream_follows_the_mix_and_stays_in_range() {
        let reqs: Vec<Request> = RequestStream::new(Mix::Mixed, CATALOG, 11)
            .take(20_000)
            .collect();
        let mut k10 = 0;
        let mut k50 = 0;
        let mut score = 0;
        let mut hits = [0usize; 863];
        for r in &reqs {
            match r {
                Request::TopK { domain, user, k } => {
                    assert!((*user as usize) < CATALOG.users[*domain]);
                    if *k == 10 {
                        k10 += 1;
                    } else {
                        assert_eq!(*k, 50);
                        k50 += 1;
                    }
                    if *domain == 1 {
                        hits[*user as usize] += 1;
                    }
                }
                Request::Score { domain, items, .. } => {
                    assert_eq!(items.len(), 20);
                    assert!(items.iter().all(|&i| (i as usize) < CATALOG.items[*domain]));
                    score += 1;
                }
            }
        }
        let share = |n: usize| n as f64 / reqs.len() as f64;
        assert!((share(k10) - 0.85).abs() < 0.02);
        assert!((share(k50) - 0.10).abs() < 0.02);
        assert!((share(score) - 0.05).abs() < 0.01);
        // Zipf(1.0) over 863 users: the hottest user takes ~13 % of
        // its domain's traffic, far above uniform's 0.12 %.
        let top = *hits.iter().max().unwrap_or(&0) as f64;
        let domain_b: usize = hits.iter().sum();
        assert!(top / domain_b as f64 > 0.08, "{top} of {domain_b}");
    }

    #[test]
    fn request_lines_parse_as_wire_requests() {
        let reqs: Vec<Request> = RequestStream::new(Mix::Mixed, CATALOG, 5)
            .take(200)
            .collect();
        for r in reqs {
            let parsed = nm_serve::protocol::parse_request(&r.line()).expect("valid request");
            match (&r, parsed) {
                (
                    Request::TopK { domain, user, k },
                    nm_serve::Request::TopK {
                        domain: d,
                        user: u,
                        k: kk,
                    },
                ) => {
                    assert_eq!((*domain, *user, *k), (d, u, kk));
                }
                (Request::Score { items, .. }, nm_serve::Request::Score { items: it, .. }) => {
                    assert_eq!(items, &it);
                }
                other => panic!("mismatched request kinds: {other:?}"),
            }
        }
    }
}
