package main

// runColdStart repeats reportd's start-up: dumps, relationships and
// routes on disk to the first 200 on /v1/summary over loopback.
//
// There is no warm-up repetition: release returns the heap to the
// system between repetitions, so each one faults its memory in as the
// first one in a process does, and the first measures within the spread
// of the rest.
func runColdStart(cfg runConfig, rec *recorder, res *runResult) error {
	notIgnored := int64(-1) // routes the verifier must report on, counted from routes.txt once
	ms, err := repeat(cfg, rec, res, 0, func(i, root int) (func() error, error) {
		s, err := startReportd(cfg.Dir, rec, root, i)
		if err != nil {
			return nil, err
		}
		return func() error {
			c, err := dial(s.base)
			if err != nil {
				return err
			}
			defer c.close()
			sum, err := summary(c)
			if err != nil {
				return err
			}
			if notIgnored < 0 {
				notIgnored = int64(len(s.routes) - populationsOf(s.routes).ignored)
			}
			res.check(sum.Routes == notIgnored, "summary reports %d routes, routes.txt has %d that are not ignored", sum.Routes, notIgnored)
			res.layer("bench.routes", float64(len(s.routes)))
			if i == 0 {
				if cfg.Digest {
					d, err := reportsDigest(s.inc.Reports())
					if err != nil {
						return err
					}
					res.digest("cold-start-2k.reports", d)
				}
				if cfg.Trace {
					probeVerifyAndStore(s, res)
				}
			}
			if err := s.stop(); err != nil {
				return err
			}
			s = nil
			release()
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	res.setOps(ms)
	return nil
}
