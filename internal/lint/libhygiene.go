package lint

// Libhygiene keeps internal/ library packages silent and killable: no
// printing to stdout, no process exits, no log.Fatal. Library errors
// must flow up as error values so the CLIs decide presentation and exit
// codes — and so a failing simulation surfaces as a test failure, not a
// dead test process. Writing to an io.Writer handed in by the caller
// (fmt.Fprintf) stays legal.
var Libhygiene = &Analyzer{
	Name: "libhygiene",
	Doc:  "forbid fmt.Print*/os.Exit/log.Fatal* in internal/ libraries; return errors instead",
	Run:  runLibhygiene,
}

const (
	toStdout = "writes to stdout from a library; return the string or take an io.Writer"
	aborts   = "aborts the process from a library; return an error instead"
)

// libhygieneCalls maps each forbidden callee to what is wrong with it.
var libhygieneCalls = map[FuncID]string{
	"fmt.Print": toStdout, "fmt.Printf": toStdout, "fmt.Println": toStdout,
	"os.Exit":   "kills the process from a library; return an error and let cmd/ decide",
	"log.Fatal": aborts, "log.Fatalf": aborts, "log.Fatalln": aborts,
	"log.Panic": aborts, "log.Panicf": aborts, "log.Panicln": aborts,
}

func runLibhygiene(pass *Pass) {
	for _, id := range pass.Graph.SortedIDs() {
		node := pass.Graph.Funcs[id]
		if node.Pkg == nil || !isInternalPackage(node.Pkg) {
			continue
		}
		for _, e := range node.Calls {
			if msg, bad := libhygieneCalls[e.Callee]; bad {
				pass.Report(e.Pos(), nil, "%s %s", e.Callee, msg)
			}
		}
	}
}
