package mcbench

// SetResponseCap lowers a client's response-body cap, so that a test can
// exceed it without streaming hundreds of megabytes.
func SetResponseCap(c *Client, n int64) { c.maxBody = n }
