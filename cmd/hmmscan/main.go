// Command hmmscan searches every model of a profile library (a
// multi-model HMMER3 file, like a Pfam release) against a sequence
// database and reports per-family hits — the paper's motivating
// use case of scanning "an entire database of HMMs for all motifs".
//
//	hmmscan -engine gpu pfam-like.hmm targets.fasta
package main

import (
	"flag"
	"fmt"
	"os"

	"hmmer3gpu/internal/alphabet"
	"hmmer3gpu/internal/gpu"
	"hmmer3gpu/internal/hmm"
	"hmmer3gpu/internal/pipeline"
	"hmmer3gpu/internal/seq"
	"hmmer3gpu/internal/simt"
)

func main() {
	var (
		engine = flag.String("engine", "cpu", "cpu|gpu")
		evalue = flag.Float64("E", 10.0, "report hits with E-value <= this")
		top    = flag.Int("top", 3, "hits to list per model")
	)
	run := pipeline.NewFlags()
	run.Register(flag.CommandLine, "workers")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: hmmscan [flags] <library.hmm> <targets.fasta>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	abc := alphabet.New()
	hf, err := os.Open(flag.Arg(0))
	check(err)
	models, err := hmm.ReadAll(hf, abc)
	check(err)
	hf.Close()

	ff, err := os.Open(flag.Arg(1))
	check(err)
	db, err := seq.ReadFASTA(ff, abc)
	check(err)
	ff.Close()

	fmt.Printf("scanning %d models against %s (%d sequences, %d residues)\n\n",
		len(models), flag.Arg(1), db.NumSeqs(), db.TotalResidues())
	fmt.Printf("%-24s %6s %8s %8s %s\n", "model", "M", "MSVpass", "hits", "best hits (E-value)")

	var dev *simt.Device
	if *engine == "gpu" {
		dev = simt.NewDevice(simt.TeslaK40())
	} else if *engine != "cpu" {
		fatalf("unknown -engine %q", *engine)
	}

	for _, model := range models {
		pl, err := pipeline.New(model, int(db.MeanLen()), run.Opts)
		check(err)
		var res *pipeline.Result
		if dev != nil {
			res, err = pl.RunGPU(dev, gpu.MemAuto, db)
		} else {
			res, err = pl.RunCPU(db)
		}
		check(err)

		reported := 0
		summary := ""
		for _, h := range res.Hits {
			if h.EValue > *evalue || reported == *top {
				break
			}
			if reported > 0 {
				summary += ", "
			}
			summary += fmt.Sprintf("%s (%.2g)", h.Name, h.EValue)
			reported++
		}
		if summary == "" {
			summary = "-"
		}
		fmt.Printf("%-24s %6d %7.2f%% %8d %s\n",
			model.Name, model.M, res.MSV.PassFraction()*100, len(res.Hits), summary)
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmmscan: "+format+"\n", args...)
	os.Exit(1)
}
