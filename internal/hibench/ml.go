package hibench

import (
	"math"
	"math/rand"

	"mpi4spark/internal/spark"
)

// MLConfig parameterizes the gradient-descent workloads (SVM, LR).
type MLConfig struct {
	Parts      int
	PerPart    int
	Dim        int
	Iterations int
	StepSize   float64
	Seed       int64
}

func (c MLConfig) valid() bool {
	return c.Parts >= 1 && c.PerPart >= 1 && c.Dim >= 1 && c.Iterations >= 1 && c.StepSize > 0
}

// RunSVM trains a linear SVM with hinge-loss gradient descent
// (HiBench's SVM workload). The returned metric is the final hinge loss.
func RunSVM(ctx *spark.Context, cfg MLConfig) (*Result, error) {
	return run(ctx, "SVM", cfg, func() (float64, error) {
		points := pointsRDD(ctx, cfg.Parts, cfg.PerPart, cfg.Dim, cfg.Seed)
		if _, err := spark.Count(points); err != nil { // materialize cache
			return 0, err
		}
		w := make([]float64, cfg.Dim)
		reg := 0.01
		var loss float64
		for it := 0; it < cfg.Iterations; it++ {
			// Ship the model to the executors as a broadcast, like MLlib:
			// the weight vector rides the collective broadcast, seeded to
			// every executor once.
			wb := spark.NewBroadcast(ctx, append([]float64(nil), w...), 8*cfg.Dim)
			grad, err := treeAggregate(points, cfg.Dim+1, func(part int, tc *spark.TaskContext, items []LabeledPoint) []float64 {
				weights := wb.Value(tc)
				out := make([]float64, cfg.Dim+1) // gradient + loss tail
				for _, p := range items {
					margin := p.Label * dot(weights, p.Features)
					if margin < 1 {
						for d := range p.Features {
							out[d] -= p.Label * p.Features[d]
						}
						out[cfg.Dim] += 1 - margin
					}
				}
				chargeFlops(tc, len(items)*cfg.Dim*3)
				return out
			})
			wb.Destroy()
			if err != nil {
				return 0, err
			}
			n := float64(cfg.Parts * cfg.PerPart)
			for d := 0; d < cfg.Dim; d++ {
				w[d] -= cfg.StepSize * (grad[d]/n + reg*w[d])
			}
			loss = grad[cfg.Dim] / n
		}
		return loss, nil
	})
}

// RunLogisticRegression trains a binary logistic regression with gradient
// descent (HiBench's LR workload). The metric is the final log-loss.
func RunLogisticRegression(ctx *spark.Context, cfg MLConfig) (*Result, error) {
	return run(ctx, "LR", cfg, func() (float64, error) {
		points := pointsRDD(ctx, cfg.Parts, cfg.PerPart, cfg.Dim, cfg.Seed)
		if _, err := spark.Count(points); err != nil {
			return 0, err
		}
		w := make([]float64, cfg.Dim)
		var loss float64
		for it := 0; it < cfg.Iterations; it++ {
			wb := spark.NewBroadcast(ctx, append([]float64(nil), w...), 8*cfg.Dim)
			grad, err := treeAggregate(points, cfg.Dim+1, func(part int, tc *spark.TaskContext, items []LabeledPoint) []float64 {
				weights := wb.Value(tc)
				out := make([]float64, cfg.Dim+1)
				for _, p := range items {
					y := (p.Label + 1) / 2 // {-1,1} -> {0,1}
					pr := logistic(dot(weights, p.Features))
					diff := pr - y
					for d := range p.Features {
						out[d] += diff * p.Features[d]
					}
					out[cfg.Dim] += -y*math.Log(pr+1e-12) - (1-y)*math.Log(1-pr+1e-12)
				}
				chargeFlops(tc, len(items)*cfg.Dim*4)
				return out
			})
			wb.Destroy()
			if err != nil {
				return 0, err
			}
			n := float64(cfg.Parts * cfg.PerPart)
			for d := 0; d < cfg.Dim; d++ {
				w[d] -= cfg.StepSize * grad[d] / n
			}
			loss = grad[cfg.Dim] / n
		}
		return loss, nil
	})
}

// GMMConfig parameterizes the Gaussian Mixture Model workload.
type GMMConfig struct {
	Parts      int
	PerPart    int
	Dim        int
	K          int
	Iterations int
	Seed       int64
}

func (c GMMConfig) valid() bool {
	return c.Parts >= 1 && c.PerPart >= 1 && c.Dim >= 1 && c.K >= 1 && c.Iterations >= 1
}

// RunGMM fits a diagonal-covariance Gaussian mixture with EM (HiBench's
// GMM workload). The metric is the final mean log-likelihood.
func RunGMM(ctx *spark.Context, cfg GMMConfig) (*Result, error) {
	return run(ctx, "GMM", cfg, func() (float64, error) {
		points := pointsRDD(ctx, cfg.Parts, cfg.PerPart, cfg.Dim, cfg.Seed)
		if _, err := spark.Count(points); err != nil {
			return 0, err
		}
		// Initialize k components deterministically.
		rng := rand.New(rand.NewSource(cfg.Seed))
		mu := make([][]float64, cfg.K)
		sigma := make([][]float64, cfg.K)
		pi := make([]float64, cfg.K)
		for k := 0; k < cfg.K; k++ {
			mu[k] = make([]float64, cfg.Dim)
			sigma[k] = make([]float64, cfg.Dim)
			for d := range mu[k] {
				mu[k][d] = rng.NormFloat64()
				sigma[k][d] = 1
			}
			pi[k] = 1 / float64(cfg.K)
		}
		// Sufficient statistics layout per component: weight, sum[dim],
		// sqsum[dim]; plus one log-likelihood slot at the end.
		statLen := cfg.K*(1+2*cfg.Dim) + 1
		type gmmModel struct {
			mu, sigma [][]float64
			pi        []float64
		}
		var ll float64
		for it := 0; it < cfg.Iterations; it++ {
			mb := spark.NewBroadcast(ctx, gmmModel{mu: mu, sigma: sigma, pi: pi},
				8*cfg.K*(2*cfg.Dim+1))
			stats, err := treeAggregate(points, statLen, func(part int, tc *spark.TaskContext, items []LabeledPoint) []float64 {
				model := mb.Value(tc)
				muS, sigmaS, piS := model.mu, model.sigma, model.pi
				out := make([]float64, statLen)
				resp := make([]float64, cfg.K)
				for _, p := range items {
					var total float64
					for k := 0; k < cfg.K; k++ {
						lp := math.Log(piS[k] + 1e-12)
						for d := 0; d < cfg.Dim; d++ {
							diff := p.Features[d] - muS[k][d]
							lp += -0.5*(diff*diff)/sigmaS[k][d] - 0.5*math.Log(2*math.Pi*sigmaS[k][d])
						}
						resp[k] = math.Exp(lp)
						total += resp[k]
					}
					out[statLen-1] += math.Log(total + 1e-300)
					for k := 0; k < cfg.K; k++ {
						r := resp[k] / (total + 1e-300)
						base := k * (1 + 2*cfg.Dim)
						out[base] += r
						for d := 0; d < cfg.Dim; d++ {
							out[base+1+d] += r * p.Features[d]
							out[base+1+cfg.Dim+d] += r * p.Features[d] * p.Features[d]
						}
					}
				}
				chargeFlops(tc, len(items)*cfg.K*cfg.Dim*6)
				return out
			})
			mb.Destroy()
			if err != nil {
				return 0, err
			}
			n := float64(cfg.Parts * cfg.PerPart)
			newMu := make([][]float64, cfg.K)
			newSigma := make([][]float64, cfg.K)
			newPi := make([]float64, cfg.K)
			for k := 0; k < cfg.K; k++ {
				base := k * (1 + 2*cfg.Dim)
				wk := stats[base]
				newPi[k] = wk / n
				newMu[k] = make([]float64, cfg.Dim)
				newSigma[k] = make([]float64, cfg.Dim)
				for d := 0; d < cfg.Dim; d++ {
					if wk > 1e-9 {
						newMu[k][d] = stats[base+1+d] / wk
						newSigma[k][d] = stats[base+1+cfg.Dim+d]/wk - newMu[k][d]*newMu[k][d]
					} else {
						newMu[k][d] = mu[k][d]
						newSigma[k][d] = sigma[k][d]
					}
					if newSigma[k][d] < 1e-6 {
						newSigma[k][d] = 1e-6
					}
				}
			}
			mu, sigma, pi = newMu, newSigma, newPi
			ll = stats[statLen-1] / n
		}
		return ll, nil
	})
}

// LDAConfig parameterizes the Latent Dirichlet Allocation workload.
type LDAConfig struct {
	Parts      int
	DocsPer    int
	Vocab      int
	WordsPer   int
	K          int
	Iterations int
	Seed       int64
}

func (c LDAConfig) valid() bool {
	return c.Parts >= 1 && c.DocsPer >= 1 && c.Vocab >= 1 && c.WordsPer >= 1 && c.K >= 1 && c.Iterations >= 1
}

// doc is one document: distinct word ids and their counts.
type doc struct {
	words  []int64
	counts []float64
}

// RunLDA runs an EM-style topic-model iteration loop (HiBench's LDA): each
// iteration aggregates the dense vocabulary-by-topic sufficient statistics
// across the cluster. The aggregation rides the collective layer
// (reduce/allreduce over per-executor partial matrices) instead of a
// vocabulary-wide shuffle, so the per-iteration communication is the
// topic-word matrix itself — the pattern where the paper's MPI designs
// show the largest ML-suite gains. The metric is a pseudo log-likelihood.
func RunLDA(ctx *spark.Context, cfg LDAConfig) (*Result, error) {
	return run(ctx, "LDA", cfg, func() (float64, error) {
		docs := spark.Generate(ctx, cfg.Parts, func(part int, tc *spark.TaskContext) []doc {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(part)))
			out := make([]doc, cfg.DocsPer)
			for i := range out {
				words := make([]int64, cfg.WordsPer)
				counts := make([]float64, cfg.WordsPer)
				for j := range words {
					words[j] = rng.Int63n(int64(cfg.Vocab))
					counts[j] = float64(1 + rng.Intn(5))
				}
				out[i] = doc{words: words, counts: counts}
			}
			tc.ChargeRecords(cfg.DocsPer, cfg.DocsPer*cfg.WordsPer*12)
			return out
		}).Cache()
		if _, err := spark.Count(docs); err != nil {
			return 0, err
		}

		// Topic-word weights, driver-resident between iterations (MLlib's
		// EM LDA keeps them in the GraphX edge partitioning; here the
		// collective carries the dense per-iteration statistics).
		statLen := cfg.Vocab * cfg.K
		topicWord := make(map[int64][]float64)
		var ll float64
		for it := 0; it < cfg.Iterations; it++ {
			// The topic-word matrix is broadcast to the executors each
			// iteration (vocab x K doubles), as MLlib distributes the
			// expectation-step model.
			pb := spark.NewBroadcast(ctx, topicWord, len(topicWord)*(8+8*cfg.K))
			itSeed := cfg.Seed + int64(it)
			stats, err := treeAggregate(docs, statLen, func(part int, tc *spark.TaskContext, items []doc) []float64 {
				prior := pb.Value(tc)
				out := make([]float64, statLen)
				for _, d := range items {
					for i, w := range d.words {
						base := prior[w]
						for k := 0; k < cfg.K; k++ {
							p := 1.0 / float64(cfg.K)
							if base != nil {
								p = base[k] + 1e-6
							}
							// Deterministic pseudo E-step weighting.
							out[int(w)*cfg.K+k] += d.counts[i] * p * (1 + 0.01*float64((w+int64(k)+itSeed)%7))
						}
					}
				}
				chargeFlops(tc, len(items)*cfg.WordsPer*cfg.K*3)
				return out
			})
			pb.Destroy()
			if err != nil {
				return 0, err
			}
			topicWord = make(map[int64][]float64)
			ll = 0
			for w := 0; w < cfg.Vocab; w++ {
				row := stats[w*cfg.K : (w+1)*cfg.K]
				var sum float64
				for _, v := range row {
					sum += v
				}
				if sum == 0 {
					continue // word never sampled into the corpus
				}
				norm := make([]float64, cfg.K)
				for k := range norm {
					norm[k] = row[k] / (sum + 1e-12)
				}
				topicWord[int64(w)] = norm
				ll += math.Log(sum + 1e-12)
			}
		}
		return ll, nil
	})
}
