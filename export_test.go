package mcbench

import "mcbench/internal/experiments"

// SetResponseCap lowers a client's response-body cap, so that a test can
// exceed it without streaming hundreds of megabytes.
func SetResponseCap(c *Client, n int64) { c.maxBody = n }

// WarmPlan returns the distinct products Lab.Warm(ctx, names, cores)
// precomputes, and Lab.Run(ctx, name, cores) with them, so that a test
// can compare plans without sweeping.
func WarmPlan(l *Lab, names []string, cores int) ([]experiments.Request, error) {
	plan, err := l.plan(names, cores)
	return experiments.Distinct(plan), err
}
