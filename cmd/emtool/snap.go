package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/snap"
)

// emtool snap inspects and maintains a matcher snapshot store (see
// internal/snap): the content-addressed checkpoint directory emserve
// warm-starts from.
//
//	emtool snap ls     -store dir              list artifacts and refs
//	emtool snap info   -store dir <hash|ref>   show one artifact's identity
//	emtool snap verify -store dir              check framing + checksums of every artifact
//	emtool snap gc     -store dir [-dry-run]   remove unreferenced artifacts
//	emtool snap train  -store dir -matcher m [-seed N] [-parallel N] [-ref name]
//	                                           ready a matcher and file its snapshot
//
// verify and gc exit non-zero when they find corrupt artifacts (verify)
// or fail (gc), so both gate cleanly in CI; make smoke primes a store
// with train, runs verify over it and warm-starts emserve from it.

type snapConfig struct {
	cmd, arg string
	// spec carries -store for every command, and -matcher, -seed,
	// -parallel and -ref for train.
	spec   eval.ReadySpec
	dryRun bool
}

func parseSnapFlags(args []string) (snapConfig, error) {
	if len(args) == 0 {
		return snapConfig{}, fmt.Errorf("snap needs a command")
	}
	cfg := snapConfig{cmd: args[0]}
	fs := flag.NewFlagSet("emtool snap "+cfg.cmd, flag.ContinueOnError)
	cfg.spec.RegisterFlags(fs)
	fs.BoolVar(&cfg.dryRun, "dry-run", false, "gc: report what would be removed without removing")
	fs.StringVar(&cfg.spec.Ref, "ref", "", "train: ref name to point at the snapshot (default emsnap-<matcher>)")
	if err := fs.Parse(args[1:]); err != nil {
		return cfg, err
	}
	cfg.arg = fs.Arg(0)
	switch cfg.cmd {
	case "ls", "verify", "gc", "train":
	case "info":
		if cfg.arg == "" {
			return cfg, fmt.Errorf("info needs a hash or ref name")
		}
	default:
		return cfg, fmt.Errorf("unknown snap command %q", cfg.cmd)
	}
	if cfg.spec.Store == "" {
		return cfg, fmt.Errorf("-store is required")
	}
	if cfg.spec.Ref == "" {
		cfg.spec.Ref = "emsnap-" + cfg.spec.Matcher
	}
	return cfg, nil
}

func snapMain(args []string) error {
	cfg, err := parseSnapFlags(args)
	if err != nil {
		return usageError{err}
	}
	if cfg.cmd == "train" {
		return train(cfg.spec)
	}
	st, err := snap.Open(cfg.spec.Store, nil)
	if err != nil {
		return err
	}
	switch cfg.cmd {
	case "ls":
		return ls(st)
	case "info":
		return info(st, cfg.arg)
	case "verify":
		return verify(st)
	default:
		return gc(st, cfg.dryRun)
	}
}

func ls(st *snap.Store) error {
	infos, err := st.List()
	if err != nil {
		return err
	}
	for _, in := range infos {
		if in.MetaErr != nil {
			fmt.Printf("%.12s  %8d B  <corrupt: %v>\n", in.Hash, in.Bytes, in.MetaErr)
			continue
		}
		fmt.Printf("%.12s  %8d B  %-24s %s\n",
			in.Hash, in.Bytes, in.Meta.Matcher, time.Unix(in.Meta.CreatedUnix, 0).UTC().Format(time.RFC3339))
	}
	refs, err := st.Refs()
	if err != nil {
		return err
	}
	for _, r := range refs {
		fmt.Printf("ref %-24s -> %.12s\n", r.Name, r.Hash)
	}
	fmt.Printf("%d artifacts, %d refs\n", len(infos), len(refs))
	return nil
}

// resolve turns an argument into an artifact hash: a ref name if one
// exists, else a hash prefix matched against the artifact list.
func resolve(st *snap.Store, arg string) (string, error) {
	if hash, err := st.Ref(arg); err == nil {
		return hash, nil
	}
	infos, err := st.List()
	if err != nil {
		return "", err
	}
	var match string
	for _, in := range infos {
		if strings.HasPrefix(in.Hash, arg) {
			if match != "" {
				return "", fmt.Errorf("ambiguous prefix %q", arg)
			}
			match = in.Hash
		}
	}
	if match == "" {
		return "", fmt.Errorf("no artifact or ref matches %q", arg)
	}
	return match, nil
}

func info(st *snap.Store, arg string) error {
	hash, err := resolve(st, arg)
	if err != nil {
		return err
	}
	meta, err := st.Meta(hash)
	if err != nil {
		return err
	}
	fmt.Printf("hash:    %s\nmatcher: %s\nconfig:  %s\ncreated: %s\n",
		hash, meta.Matcher, meta.Config, time.Unix(meta.CreatedUnix, 0).UTC().Format(time.RFC3339))
	return nil
}

func verify(st *snap.Store) error {
	results, err := st.VerifyAll()
	if err != nil {
		return err
	}
	bad := 0
	for _, r := range results {
		if r.Err != nil {
			bad++
			fmt.Printf("FAIL %.12s  %v\n", r.Hash, r.Err)
		} else {
			fmt.Printf("ok   %.12s  %s (%d B)\n", r.Hash, r.Meta.Matcher, r.Bytes)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d artifacts corrupt", bad, len(results))
	}
	fmt.Printf("verified %d artifacts, all sound\n", len(results))
	return nil
}

func gc(st *snap.Store, dryRun bool) error {
	removed, err := st.GC(dryRun)
	if err != nil {
		return err
	}
	verb := "removed"
	if dryRun {
		verb = "would remove"
	}
	for _, h := range removed {
		fmt.Printf("%s %.12s\n", verb, h)
	}
	fmt.Printf("%s %d unreferenced artifacts\n", verb, len(removed))
	return nil
}

// train readies the matcher through the start-up path emserve uses
// (eval.ReadyMatcher), so the snapshot lands under the content address
// emserve computes and a store primed here warm-starts it.
func train(spec eval.ReadySpec) error {
	spec.Logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, "emtool snap: "+format+"\n", args...) }
	r, err := eval.ReadyMatcher(spec)
	if err != nil {
		return err
	}
	how := "trained"
	if r.Warm {
		how = "already stored: restored"
	}
	fmt.Printf("%s %s in %.3fs, snapshot %.12s (ref %s)\n", how, r.Matcher.Name(), r.Seconds, r.Hash, spec.Ref)
	return nil
}
