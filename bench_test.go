package ssync

// One testing.B benchmark per table and figure of the paper's evaluation,
// plus the ablation benches DESIGN.md calls out. Each iteration regenerates
// the artifact on a reduced configuration; the custom metrics expose the
// headline quantity of the corresponding figure so `go test -bench=.`
// doubles as a regression harness for the reproduction.
//
// The full-scale regeneration is `ssync figures` (internal/cli/figures.go).

import (
	"testing"

	"ssync/internal/arch"
	"ssync/internal/bench"
	"ssync/internal/ccbench"
	"ssync/internal/simlocks"
)

var benchCfg = bench.Config{Deadline: 60_000, LatencyOps: 30, Reps: 2}

func BenchmarkTable2(b *testing.B) {
	p := arch.Opteron()
	var last float64
	for i := 0; i < b.N; i++ {
		r := ccbench.Run(p, ccbench.Case{Op: arch.Load, State: arch.Modified, Class: 3}, 2)
		last = r.Cycles
	}
	b.ReportMetric(last, "cycles/2hop-load")
}

func BenchmarkTable3(b *testing.B) {
	p := arch.Xeon()
	var ram uint64
	for i := 0; i < b.N; i++ {
		rows := ccbench.Table3(p)
		ram = rows[3].Cycles
	}
	b.ReportMetric(float64(ram), "cycles/ram")
}

func BenchmarkFigure3(b *testing.B) {
	var naiveOverBackoff float64
	for i := 0; i < b.N; i++ {
		fig := bench.Figure3(benchCfg)
		naive := bench.FindSeries(fig, string(bench.TicketNaive))
		backoff := bench.FindSeries(fig, string(bench.TicketBackoff))
		naiveOverBackoff = naive.At(48) / backoff.At(48)
	}
	b.ReportMetric(naiveOverBackoff, "naive/backoff@48")
}

func BenchmarkFigure4(b *testing.B) {
	p := arch.Opteron()
	var drop float64
	for i := 0; i < b.N; i++ {
		fig := bench.Figure4(p, benchCfg)
		fai := bench.FindSeries(fig, "FAI")
		drop = fai.At(6) / fai.At(48)
	}
	b.ReportMetric(drop, "insocket/crosssocket")
}

func BenchmarkFigure5(b *testing.B) {
	p := arch.Xeon()
	var best float64
	for i := 0; i < b.N; i++ {
		fig := bench.Figure5(p, benchCfg)
		best = bench.BestSeries(fig).At(40)
	}
	b.ReportMetric(best, "Mops@40")
}

func BenchmarkFigure6(b *testing.B) {
	p := arch.Opteron()
	var worst float64
	for i := 0; i < b.N; i++ {
		for _, r := range bench.Figure6(p, benchCfg) {
			if r.Alg == simlocks.TICKET && r.Class == "two hops" {
				worst = r.Cycles
			}
		}
	}
	b.ReportMetric(worst, "cycles/remote-acquire")
}

func BenchmarkFigure7(b *testing.B) {
	p := arch.Niagara()
	var scal float64
	for i := 0; i < b.N; i++ {
		fig := bench.Figure7(p, benchCfg)
		ticket := bench.FindSeries(fig, "TICKET")
		scal = ticket.At(32) / ticket.At(1)
	}
	b.ReportMetric(scal, "scalability@32")
}

func BenchmarkFigure8(b *testing.B) {
	p := arch.Tilera()
	var bestMops float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure8(p, 128, benchCfg)
		bestMops = rows[len(rows)-1].Mops
	}
	b.ReportMetric(bestMops, "Mops@36-128locks")
}

func BenchmarkFigure9(b *testing.B) {
	p := arch.Tilera()
	var oneWay float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure9(p, benchCfg)
		oneWay = rows[0].OneWay
	}
	b.ReportMetric(oneWay, "cycles/hw-oneway")
}

func BenchmarkFigure10(b *testing.B) {
	p := arch.Xeon()
	var rt float64
	for i := 0; i < b.N; i++ {
		fig := bench.Figure10(p, benchCfg)
		s := bench.FindSeries(fig, "round-trip")
		rt = s.Points[len(s.Points)-1].Y
	}
	b.ReportMetric(rt, "Mops@maxclients")
}

func BenchmarkFigure11(b *testing.B) {
	p := arch.Opteron()
	var mpOverLocks float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure11(p, 12, 12, benchCfg)
		last := rows[len(rows)-1]
		mpOverLocks = last.MPMops / last.BestMops
	}
	b.ReportMetric(mpOverLocks, "mp/locks@36-highcontention")
}

func BenchmarkFigure12(b *testing.B) {
	p := arch.Xeon()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = bench.KVSSpeedup(bench.Figure12(p, false, benchCfg))
	}
	b.ReportMetric(speedup*100, "%speedup-over-mutex")
}

func BenchmarkTM(b *testing.B) {
	p := arch.Opteron()
	var mpOverLocks float64
	for i := 0; i < b.N; i++ {
		rows := bench.TMExperiment(p, 8, benchCfg)
		last := rows[len(rows)-1]
		mpOverLocks = last.MPMops / last.LockMops
	}
	b.ReportMetric(mpOverLocks, "mp/locks@36-highcontention")
}

func BenchmarkAblationNoContention(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		a := bench.AblationNoContention(arch.Opteron(), 24, benchCfg)
		gain = a.Off / a.On
	}
	b.ReportMetric(gain, "x-without-serialisation")
}

func BenchmarkAblationProbeFilter(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		a := bench.AblationProbeFilter(24, benchCfg)
		gain = a.Off / a.On
	}
	b.ReportMetric(gain, "x-with-complete-directory")
}

func BenchmarkAblationMPPrefetchw(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		a := bench.AblationMPPrefetchw(benchCfg)
		gain = a.Off / a.On
	}
	b.ReportMetric(gain, "x-with-prefetchw")
}

func BenchmarkAblationTicketBackoff(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		a := bench.AblationTicketBackoff(24, benchCfg)
		gain = a.Off / a.On
	}
	b.ReportMetric(gain, "x-with-backoff")
}
