package ddosim

import (
	"net/netip"

	"ddosim/internal/defense"
	"ddosim/internal/epidemic"
	"ddosim/internal/metrics"
	"ddosim/internal/netsim"
)

// This file re-exports the §V use-case toolkits — defense testing and
// botnet-spread modeling — so downstream code can drive them through
// the public API.

// Node is a simulated network endpoint (TServer, attacker, Devs).
type Node = netsim.Node

// Sink is TServer's measurement application.
type Sink = netsim.Sink

// Star is the router-centric topology helper; Simulation.Star exposes
// the live instance for attaching extra hosts.
type Star = netsim.Star

// Timeline is the run's event log.
type Timeline = metrics.Timeline

// --- Traffic analysis ---

// Capture is a tcpdump-style packet capture on a node.
type Capture = netsim.Capture

// StartCapture installs a packet capture keeping at most max entries
// (max <= 0 keeps everything).
func StartCapture(n *Node, max int) *Capture { return netsim.StartCapture(n, max) }

// --- Defense testing (§V-A) ---

// TrafficExtractor aggregates per-second traffic features at a node.
type TrafficExtractor = defense.Extractor

// FeatureVector is one second of extracted features.
type FeatureVector = defense.FeatureVector

// DetectorSample is one labeled training instance.
type DetectorSample = defense.Sample

// Detector is a logistic-regression DDoS classifier.
type Detector = defense.Logistic

// Confusion tallies detector outcomes.
type Confusion = defense.Confusion

// NewTrafficExtractor installs a feature extractor on a node
// (typically Simulation.TServer()).
func NewTrafficExtractor(n *Node) *TrafficExtractor { return defense.NewExtractor(n) }

// TrainDetector fits a detector on labeled windows.
func TrainDetector(samples []DetectorSample, epochs int, lr float64, seed int64) *Detector {
	return defense.Train(samples, epochs, lr, seed)
}

// EvaluateDetector classifies samples and tallies the confusion
// matrix.
func EvaluateDetector(m *Detector, samples []DetectorSample) Confusion {
	return defense.Evaluate(m, samples)
}

// InstallBenignClients attaches n benign telemetry clients to the
// simulation's star, pointed at dst.
func InstallBenignClients(star *Star, dst netip.AddrPort, n int, namePrefix string) error {
	_, err := defense.InstallBenignClients(star, dst, n, namePrefix)
	return err
}

// RateLimiter is a deployable per-source token-bucket mitigation.
type RateLimiter = defense.RateLimiter

// InstallRateLimiter deploys a per-source token-bucket firewall on a
// node (typically TServer): sustained bytesPerSec per source,
// burstBytes depth, permanent blacklisting after blacklistAfter
// dropped packets (0 disables).
func InstallRateLimiter(node *Node, bytesPerSec, burstBytes float64, blacklistAfter int) *RateLimiter {
	return defense.InstallRateLimiter(node, bytesPerSec, burstBytes, blacklistAfter)
}

// --- Botnet-spread modeling (§V-B) ---

// InfectionCurve is a measured cumulative-infections curve.
type InfectionCurve = epidemic.Curve

// FitInfectionLambda fits the external-force model
// dI/dt = lambda (N - I) to a measured curve, returning the rate and
// the fit RMSE.
func FitInfectionLambda(c InfectionCurve, n int, horizonSecs float64) (lambda, rmse float64) {
	return epidemic.FitLambda(c, n, horizonSecs)
}

// FitInfectionBeta fits the SI contact model to a measured curve.
func FitInfectionBeta(c InfectionCurve, n int, horizonSecs float64) (beta, rmse float64) {
	return epidemic.FitBeta(c, n, horizonSecs)
}

// SimulateExternalInfection integrates the external-force model.
func SimulateExternalInfection(lambda float64, n int, dt, horizonSecs float64) (times, infected []float64) {
	return epidemic.SimulateExternal(epidemic.ExternalParams{Lambda: lambda, N: float64(n)}, dt, horizonSecs)
}

// InfectionCurveFromTimeline extracts the measured infection curve
// from a run's timeline.
func InfectionCurveFromTimeline(tl *Timeline) InfectionCurve {
	times, counts := tl.CumulativeCurve(EventExploitHit)
	return InfectionCurve{Times: times, Counts: counts}
}
