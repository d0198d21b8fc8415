// Command tacoc emits the C-subset kernel for one of the supported sparse
// tensor expressions, optionally compiling it through Phloem (Sec. IV-D's
// Taco integration).
//
// Usage:
//
//	tacoc spmv                        # print the emitted serial kernel
//	tacoc -pipeline spmv              # also compile it and print the pipeline
//	tacoc -pipeline -timeout 10s spmv # bound the compile in wall-clock time
//
// Exit codes: 0 success, 1 emit/compile errors, 2 usage errors,
// 4 compile cancelled by -timeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"phloem/internal/core"
	"phloem/internal/obs"
	"phloem/internal/taco"
)

func main() {
	pipe := flag.Bool("pipeline", false, "compile the kernel through Phloem")
	timeout := flag.Duration("timeout", 0,
		"with -pipeline: wall-clock compile budget (exit code 4 on expiry; 0 = unbounded)")
	stats := flag.Bool("stats", false,
		"with -pipeline: print the compile's phase wall-time metrics (build/commopt/verify)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tacoc [-pipeline] [-timeout D] [-stats] spmv|sddmm|mtmul|residual")
		os.Exit(2)
	}
	k := taco.Kernel(flag.Arg(0))
	src, err := taco.Emit(k)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tacoc:", err)
		os.Exit(1)
	}
	fmt.Printf("// %s\n%s", taco.Expression(k), src)
	if *pipe {
		opt := core.DefaultOptions()
		if *timeout > 0 {
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			defer cancel()
			opt.Ctx = ctx
		}
		var col *obs.SearchCollector
		if *stats {
			col = obs.NewSearchCollector()
			opt.Observer = col
		}
		res, err := core.CompileSource(src, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tacoc:", err)
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				os.Exit(4)
			}
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(res.Pipeline.Describe())
		if col != nil {
			fmt.Printf("\n%s", col.Metrics().String())
		}
	}
}
