// Command hmmbuild constructs a profile HMM from a multiple sequence
// alignment (aligned FASTA) and writes it in HMMER3 ASCII format,
// calibrating the three score distributions on the way:
//
//	hmmbuild -name MyFam family.afa family.hmm
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/msa"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/profile"
	"hmmer3gpu/internal/stats"
)

func main() {
	var (
		name      = flag.String("name", "", "model name (default: alignment file stem)")
		consensus = flag.Float64("symfrac", 0.5, "residue fraction marking a consensus column")
		calibrate = flag.Bool("calibrate", true, "fit Gumbel/exponential score statistics")
		calLen    = flag.Int("callen", 100, "random-sequence length for calibration")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hmmbuild [flags] <alignment.afa> <out.hmm>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	abc := alphabet.New()
	in, err := os.Open(flag.Arg(0))
	check(err)
	defer in.Close()
	ali, err := readAlignment(in, abc)
	check(err)

	if *name == "" {
		*name = stem(flag.Arg(0))
	}
	opts := msa.DefaultBuildOptions()
	opts.ConsensusFraction = *consensus
	model, err := msa.Build(*name, ali, abc, opts)
	check(err)

	if *calibrate {
		p := profile.Config(model)
		p.SetLength(*calLen)
		cal, err := pipeline.Calibrate(p, profile.NewMSVProfile(p), profile.NewVitProfile(p),
			stats.DefaultCalibration(), 0, false)
		check(err)
		model.Stats = hmm.CalibrationStats{
			MSVMu: cal.MSV.Mu, MSVLambda: cal.MSV.Lambda,
			VitMu: cal.Vit.Mu, VitLambda: cal.Vit.Lambda,
			FwdTau: cal.Fwd.Tau, FwdLambda: cal.Fwd.Lambda,
			Calibrated: true,
		}
	}

	out, err := os.Create(flag.Arg(1))
	check(err)
	check(hmm.Write(out, model))
	check(out.Close())

	fmt.Printf("built %s: M=%d from %d aligned sequences (%d columns, %.2f bits/position)\n",
		*name, model.M, ali.NumSeqs(), ali.Cols, model.MeanMatchEntropy())
	if model.Stats.Calibrated {
		fmt.Printf("calibrated: MSV mu=%.2f, Viterbi mu=%.2f, Forward tau=%.2f (lambda=%.4f)\n",
			model.Stats.MSVMu, model.Stats.VitMu, model.Stats.FwdTau, math.Ln2)
	}
	fmt.Printf("wrote %s\n", flag.Arg(1))
}

// readAlignment sniffs the format: Stockholm files start with
// "# STOCKHOLM"; anything else is treated as aligned FASTA.
func readAlignment(f *os.File, abc *alphabet.Alphabet) (*msa.MSA, error) {
	head := make([]byte, 11)
	n, _ := io.ReadFull(f, head)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n >= 11 && string(head[:11]) == "# STOCKHOLM" {
		return msa.ReadStockholm(f, abc)
	}
	return msa.Read(f, abc)
}

func stem(path string) string {
	base := path
	if i := lastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if i := lastIndexByte(base, '.'); i > 0 {
		base = base[:i]
	}
	return base
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmmbuild: %v\n", err)
		os.Exit(1)
	}
}
