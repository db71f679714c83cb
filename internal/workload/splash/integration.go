package splash

import (
	"fmt"
	"strings"
)

// This file is the build-system integration of SPLASH-3 into the
// framework — the analog of the paper's §IV-A effort item "changes in the
// build system of the suite: renaming of the variables, restructuring of
// directories, and removing unnecessary build targets (194 LoC in total)".
//
// The original SPLASH-3 kernels each carry their own multi-file source
// tree and idiosyncratic makefiles; integrating the suite means describing
// every kernel's sources, defines, and libraries in the framework's
// layered-makefile dialect so that any kernel composes with any build
// type. The per-kernel descriptions below follow the real SPLASH-3 file
// layout.

// kernelBuild describes one kernel's build inputs.
type kernelBuild struct {
	// Sources are the kernel's C translation units (real SPLASH-3 names).
	Sources []string
	// Defines are suite-specific -D flags.
	Defines []string
	// Libs are linker inputs (-lm for the numeric kernels).
	Libs []string
}

// buildManifest maps each SPLASH-3 kernel to its build description.
func buildManifest() map[string]kernelBuild {
	return map[string]kernelBuild{
		"barnes": {
			Sources: []string{"code.c", "code_io.c", "load.c", "grav.c", "getparam.c", "util.c"},
			Defines: []string{"-DQUADPOLE"},
			Libs:    []string{"-lm"},
		},
		"cholesky": {
			Sources: []string{"solve.c", "block2.c", "mf.c", "numLL.c", "parts.c", "bfac.c", "bksolve.c", "amal.c", "tree.c", "util.c"},
			Defines: []string{"-DPERFCTR"},
			Libs:    []string{"-lm"},
		},
		"fft": {
			Sources: []string{"fft.c"},
			Defines: []string{"-DBLOCKING"},
			Libs:    []string{"-lm"},
		},
		"fmm": {
			Sources: []string{"box.c", "construct_grid.c", "cost_zones.c", "interactions.c", "memory.c", "particle.c", "partition_grid.c", "fmm.c"},
			Libs:    []string{"-lm"},
		},
		"lu": {
			Sources: []string{"lu.c"},
			Defines: []string{"-DCONTIGUOUS_BLOCKS"},
			Libs:    []string{"-lm"},
		},
		"ocean": {
			Sources: []string{"main.c", "jacobcalc.c", "laplacalc.c", "linkup.c", "multi.c", "slave1.c", "slave2.c", "subblock.c"},
			Defines: []string{"-DCONTIGUOUS_PARTITIONS"},
			Libs:    []string{"-lm"},
		},
		"radiosity": {
			Sources: []string{"rad_main.c", "rad_tools.c", "room_model.c", "smallobj.c", "display.c", "elemman.c", "taskman.c", "patchman.c", "modelman.c", "visible.c"},
			Defines: []string{"-DBATCH_MODE"},
			Libs:    []string{"-lm"},
		},
		"radix": {
			Sources: []string{"radix.c"},
		},
		"raytrace": {
			Sources: []string{"main.c", "bbox.c", "cr.c", "env.c", "geo.c", "huprn.c", "husetup.c", "hutv.c", "isect.c", "matrix.c", "memory.c", "poly.c", "raystack.c", "shade.c", "sph.c", "trace.c", "tri.c", "workpool.c"},
			Libs:    []string{"-lm"},
		},
		"volrend": {
			Sources: []string{"main.c", "adaptive.c", "file.c", "map.c", "normal.c", "octree.c", "opacity.c", "option.c", "raytrace.c", "render.c", "view.c"},
			Defines: []string{"-DRENDER_ONLY"},
			Libs:    []string{"-lm"},
		},
		"water-nsquared": {
			Sources: []string{"water.c", "initia.c", "interf.c", "intraf.c", "kineti.c", "mdmain.c", "poteng.c", "predcor.c", "syscons.c", "bndry.c", "cnstnt.c"},
			Libs:    []string{"-lm"},
		},
		"water-spatial": {
			Sources: []string{"water.c", "initia.c", "interf.c", "intraf.c", "kineti.c", "mdmain.c", "poteng.c", "predcor.c", "syscons.c", "bndry.c", "cnstnt.c", "cshift.c"},
			Libs:    []string{"-lm"},
		},
	}
}

// appMakefileText renders one kernel's application-layer makefile in the
// framework's dialect: NAME, SRC list, suite defines, libraries, and the
// type-makefile include (§III-A's application-makefile pattern).
func appMakefileText(name string, kb kernelBuild) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "NAME := %s\n", name)
	fmt.Fprintf(&sb, "SRC := %s\n", strings.Join(kb.Sources, " "))
	sb.WriteString("include Makefile.$(BUILD_TYPE)\n")
	for _, d := range kb.Defines {
		fmt.Fprintf(&sb, "CFLAGS += %s\n", d)
	}
	// SPLASH-3 is pthread-based; the suite's synchronization macros are
	// selected with -DPTHREADS across all kernels.
	sb.WriteString("CFLAGS += -DPTHREADS\n")
	for _, l := range kb.Libs {
		fmt.Fprintf(&sb, "LDFLAGS += %s\n", l)
	}
	sb.WriteString("all: $(BUILD)/$(NAME)\n")
	return sb.String()
}

// BuildFiles returns the suite's per-kernel application makefiles, keyed
// by their path in the framework's directory layout
// (src/splash/<kernel>/Makefile). The framework installs them over the
// generated single-source defaults.
func BuildFiles() (map[string]string, error) {
	out := make(map[string]string, 12)
	for name, kb := range buildManifest() {
		if len(kb.Sources) == 0 {
			return nil, fmt.Errorf("splash: kernel %s has no sources", name)
		}
		out["src/"+SuiteName+"/"+name+"/Makefile"] = appMakefileText(name, kb)
	}
	return out, nil
}
