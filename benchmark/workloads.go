package main

import "strings"

// workloadDefs lists the workloads in the order BENCHMARK.json declares them.
var workloadDefs = []workloadDef{
	compileSuiteDef, autotuneGraphDef, simGraphDef, simSpMMDef, nativeRADef, nativeStageDef,
}

func findWorkload(name string) (workloadDef, bool) {
	for _, def := range workloadDefs {
		if def.name == name {
			return def, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, def := range workloadDefs {
		names[i] = def.name
	}
	return strings.Join(names, ", ")
}
