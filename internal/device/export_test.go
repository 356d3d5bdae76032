package device

// ConfigLineCount returns the number of lines in the running configuration.
func (d *Device) ConfigLineCount() int { return len(d.showConfig()) }

// ResetConfig clears the running configuration.
func (d *Device) ResetConfig() { d.SeedConfig(nil) }
